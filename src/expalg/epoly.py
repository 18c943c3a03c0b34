"""Canonical exponential polynomials: finite sums  sum_s A_s(x) * e^(s . x).

The spectrum ``s`` ranges over vectors of rationals of length n and each
coefficient A_s is a nonzero polynomial in x1..xn alone (a ``Poly`` whose
u-exponents are all zero).  The zero function is the empty map.  A
coefficient's monomials keep the ``Poly`` layout of 2n exponents; since
their u-block is zero, the evaluators enumerate whole monomials and meet
only x-positions, and ``from_poly`` reads a term's spectrum off its u-block.

This canonical form is semantically faithful: exponentials e^(s . x) with
pairwise distinct rational spectra are linearly independent over the
polynomial ring (a Lindemann-Weierstrass style fact), so a function in this
ring vanishes identically on R^n exactly when its canonical term map is
empty.  ``is_zero`` is therefore a decision procedure for identical
vanishing, and no runtime transcendence machinery is needed.

The ring is closed under addition, multiplication (spectra add, coefficients
multiply), partial differentiation (d/dx_i maps A e^(s.x) to
(dA/dx_i + s_i A) e^(s.x)), and restriction to a rational hyperplane through
the origin, which eliminates one variable and in general introduces
fractional spectra.

The constructor is the one merge path: it takes a mapping or an iterable of
(spectrum, coefficient) pairs, checks each pair, and folds them in arrival
order, adding each coefficient to the one stored under its spectrum and
removing a zero sum.  The ring operations, ``derivative``, ``restrict`` and
``from_poly`` only generate pairs for it.  (``Poly`` differs: its ring
operations and named constructors merge their terms without the public
constructor's checks.)  ``restrict`` substitutes the pivot variable with
``poly.Substitution``, one instance (and so one power table) for all the
coefficients.

Evaluation is compiled once per instance.  ``float_evaluator`` converts the
coefficients and spectra to floats once.  ``scaled_ints``, the one exact
evaluation path, runs on an integer kernel that each EPoly compiles on first
use and keeps in a private slot, outside equality and repr: at a rational
point it gives integers (M, T, {a: C_a}) with f = sum_a C_a e^(a / T) / M, so
exact signs, fixed-point values, the hyperplane certificate's refutation
and the quadtree's exact-zero corners need no Fraction per exponent.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain

from .errors import DimensionError, HyperplaneError
from .hyperplanes import Hyperplane
from .poly import Mono, Poly, RatLike, Substitution

Spectrum = tuple[Fraction, ...]


def spectrum_key(s: Sequence[Fraction]) -> tuple:
    """Canonical total order on spectra: lex on (numerator, denominator) pairs."""
    return tuple((q.numerator, q.denominator) for q in s)


def _x_only(p: Poly) -> bool:
    return not any(any(m[p.n :]) for m in p.terms)


class EPoly:
    """Exponential polynomial in canonical form (immutable).

    ``terms`` maps each spectrum to its coefficient.  At a rational point
    ``scaled_ints`` gives the exact value as integers (M, T, {a: C_a}), f =
    sum_a C_a e^(a / T) / M, which exact signs, fixed-point values and
    rigorous point boxes sum with ``intervals.exp_fixed``.
    """

    __slots__ = ("n", "terms", "_exact")

    def __init__(
        self,
        n: int,
        terms: Mapping[tuple, Poly] | Iterable[tuple[tuple, Poly]] | None = None,
    ):
        """Merge ``terms`` (a mapping or (spectrum, coefficient) pairs) in arrival order."""
        canon: dict[tuple, Poly] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        for spec, coeff in pairs:
            spec = tuple(Fraction(q) for q in spec)
            if len(spec) != n:
                raise DimensionError(f"spectrum length != ambient count {n}")
            if coeff.n != n:
                raise DimensionError("coefficient ambient != spectrum ambient")
            if not _x_only(coeff):
                raise ValueError("coefficient polynomials must not use u-variables")
            if coeff.is_zero():
                continue
            prev = canon.get(spec)
            merged = coeff if prev is None else prev + coeff
            if merged.is_zero():
                del canon[spec]
            else:
                canon[spec] = merged
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "_exact", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("EPoly is immutable")

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> EPoly:
        return cls(n, {})

    @classmethod
    def from_poly(cls, p: Poly) -> EPoly:
        """Canonical form of p(x1..xn, e^x1..e^xn): group terms by u-exponents.

        The map is a ring isomorphism onto its image; in particular the
        result is the zero function only for the zero polynomial.
        """
        n = p.n
        zero = (0,) * n
        grouped: dict[tuple, list[tuple[Mono, Fraction]]] = {}
        for mono, c in p.terms.items():
            grouped.setdefault(mono[n:], []).append((mono[:n] + zero, c))
        return cls(n, ((u, Poly(n, pairs)) for u, pairs in grouped.items()))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        """Decide whether the function vanishes identically on R^n."""
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple, Poly]]:
        return sorted(self.terms.items(), key=lambda kv: spectrum_key(kv[0]))

    def coefficient_height(self) -> int:
        return max((a.coefficient_height() for a in self.terms.values()), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"EPoly(n={self.n}, terms={len(self.terms)})"

    # -- ring operations --------------------------------------------------------

    def _check_same_ambient(self, other: EPoly) -> None:
        if self.n != other.n:
            raise DimensionError(f"ambient mismatch: {self.n} != {other.n}")

    def __add__(self, other: EPoly) -> EPoly:
        self._check_same_ambient(other)
        return EPoly(self.n, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> EPoly:
        return EPoly(self.n, {s: -a for s, a in self.terms.items()})

    def __sub__(self, other: EPoly) -> EPoly:
        return self + (-other)

    def __mul__(self, other: EPoly) -> EPoly:
        self._check_same_ambient(other)
        return EPoly(
            self.n,
            (
                (tuple(q1 + q2 for q1, q2 in zip(s1, s2)), a1 * a2)
                for s1, a1 in self.terms.items()
                for s2, a2 in other.terms.items()
            ),
        )

    def scale(self, c: RatLike) -> EPoly:
        c = Fraction(c)
        if not c:
            return EPoly.zero(self.n)
        return EPoly(self.n, {s: a.scale(c) for s, a in self.terms.items()})

    # -- calculus ----------------------------------------------------------------

    def derivative(self, i: int) -> EPoly:
        """Exact partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"variable index {i} out of range 1..{self.n}")
        return EPoly(
            self.n,
            ((s, a.derivative("x", i) + a.scale(s[i - 1])) for s, a in self.terms.items()),
        )

    # -- restriction ---------------------------------------------------------------

    def restrict(self, m: Hyperplane) -> EPoly:
        """Restriction to the hyperplane {m . x = 0}, as an EPoly in n-1 variables.

        The pivot variable x_a with |m_a| maximal (ties: smallest index) is
        eliminated via x_a = -(1/m_a) * sum_{j != a} m_j x_j, which keeps the
        substitution coefficients at most 1 in absolute value.  Spectra map to
        s'_j = s_j - s_a m_j / m_a, so rational entries appear; coefficients
        with equal restricted spectra are merged exactly.

        The result is the zero EPoly exactly when the original function
        vanishes on the whole hyperplane.
        """
        if m.dimension != self.n:
            raise DimensionError("hyperplane dimension != ambient count")
        if self.n == 0:
            raise HyperplaneError("no variables to restrict")
        normal = m.normal
        pivot = max(range(self.n), key=lambda j: (abs(normal[j]), -j))
        rest = [j for j in range(self.n) if j != pivot]
        k = self.n - 1
        ratio = [Fraction(normal[j], normal[pivot]) for j in rest]
        # x_pivot = -sum_j ratio_j x_j, written in the n-1 remaining variables.
        form = Poly.affine(k, [-r for r in ratio] + [0] * k)
        zero = (0,) * k
        sub = Substitution(form, lambda mono: (tuple(mono[j] for j in rest) + zero, mono[pivot]))
        return EPoly(
            k,
            ((tuple(s[j] - s[pivot] * r for j, r in zip(rest, ratio)), sub(a)) for s, a in self.terms.items()),
        )

    # -- evaluation -------------------------------------------------------------

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating-point value at a point of n coordinates."""
        return self.float_evaluator()(point)

    def float_evaluator(self) -> Callable[[Sequence[float]], float]:
        """The float value as a function of the point, for many points.

        Every coefficient and spectrum entry is converted to float once, here,
        rather than at each point, and each group keeps only its nonzero
        spectrum entries.  A group without one skips exp(0) = 1, a group with
        one computes its exponent q * x_j directly, and a group with several
        sums the products with ``sum``.  At finite points the dropped zero
        products could change only the sign of a zero exponent, so the value
        is the one the sum over all entries gives.
        """
        n = self.n
        compiled = [
            (
                [(j, float(q)) for j, q in enumerate(spec) if q],
                [(float(c), [(j, e) for j, e in enumerate(m) if e]) for m, c in a.terms.items()],
            )
            for spec, a in self.terms.items()
        ]
        exp = math.exp

        def value(point: Sequence[float]) -> float:
            if len(point) != n:
                raise DimensionError(f"point length {len(point)} != {n}")
            acc = 0.0
            for entries, monos in compiled:
                coeff = None
                for term, powers in monos:
                    for j, e in powers:
                        term = term * point[j] ** e
                    coeff = term if coeff is None else coeff + term
                if not entries:
                    acc += coeff
                elif len(entries) == 1:
                    [(j, q)] = entries
                    acc += coeff * exp(q * point[j])
                else:
                    acc += coeff * exp(sum(q * point[j] for j, q in entries))
            return acc

        return value

    def scaled_ints(self, point: Sequence[RatLike]) -> tuple[int, int, dict[int, int]]:
        """The exact value at a rational point: (M, T, {a: C_a}) with
        f(point) = sum_a C_a e^(a / T) / M, M > 0 and T > 0.

        Groups the terms by their exponent t = s . point = a / T, with T one
        common denominator for the point and a unreduced, and sums their
        coefficient values as integers C_a; zero sums are dropped.  Since the
        e^t with distinct rational t are linearly independent over Q, the map
        is empty exactly when f(point) = 0, and otherwise the sign of
        f(point) is that of sum_a C_a e^(a / T).  The point's entries are
        Fractions or ints.
        """
        if self._exact is None:
            object.__setattr__(self, "_exact", self._exact_evaluator())
        return self._exact(point)

    def _exact_evaluator(self) -> Callable[[Sequence[RatLike]], tuple[int, int, dict[int, int]]]:
        """The kernel of ``scaled_ints``, compiled once per instance.

        Coefficients are scaled to integers by the lcm L of their
        denominators and spectra by the lcm S of theirs.  At a point with
        common denominator D and numerators v_j, the monomial c x^a of degree
        d contributes c L D^(top - d) prod v_j^a_j, where top is the largest
        degree, and t = (sum_j s_j S v_j) / (S D); so K = 1 / M with M = L D^top
        and T = S D.
        """
        n = self.n
        scale = math.lcm(*(c.denominator for a in self.terms.values() for c in a.terms.values()))
        spec_scale = math.lcm(*(q.denominator for spec in self.terms for q in spec))
        top = max((sum(m) for a in self.terms.values() for m in a.terms), default=0)
        compiled = [
            (
                [q.numerator * (spec_scale // q.denominator) for q in spec],
                [
                    (c.numerator * (scale // c.denominator), top - sum(m), [(j, e) for j, e in enumerate(m) if e])
                    for m, c in a.terms.items()
                ],
            )
            for spec, a in self.terms.items()
        ]

        def groups(point: Sequence[RatLike]) -> tuple[int, int, dict[int, int]]:
            if len(point) != n:
                raise DimensionError(f"point length {len(point)} != {n}")
            den = math.lcm(*(v.denominator for v in point))
            nums = [v.numerator * (den // v.denominator) for v in point]
            den_pow = [1]
            for _ in range(top):
                den_pow.append(den_pow[-1] * den)
            # keyed by the numerator of t over spec_scale * den, merged in
            # term order: a zero sum is removed and a later term re-adds it
            sums: dict[int, int] = {}
            for spec, monos in compiled:
                key = sum(q * v for q, v in zip(spec, nums))
                val = 0
                for term, gap, powers in monos:
                    term *= den_pow[gap]
                    for j, e in powers:
                        term *= nums[j] ** e
                    val += term
                s = sums.get(key, 0) + val
                if s:
                    sums[key] = s
                else:
                    sums.pop(key, None)
            return scale * den_pow[top], spec_scale * den, sums

        return groups
