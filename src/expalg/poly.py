"""Exact sparse polynomials over Q in the paired variable blocks x1..xn, u1..un.

A polynomial stores a map from monomials to nonzero rational coefficients.
A monomial is one tuple of 2n non-negative exponents, those of x1..xn and
then those of u1..un, where ``n`` is the ambient variable count, fixed per
polynomial.  This module alone knows that layout: ``var_pos`` gives the
position of a variable and ``var_name`` the variable at a position.  The
zero polynomial is the empty map.

Coefficients are ``fractions.Fraction``: arithmetic is exact, canonical forms
are unique, and equality testing is reliable.  Instances are immutable after
construction; every operation returns a new polynomial in canonical form
(no stored zero coefficients), so values can be shared freely between
threads.

One merge loop, ``_merged``, folds (monomial, coefficient) pairs in arrival
order: each coefficient is added to the sum stored under its monomial, and a
zero sum is removed (a monomial met again after that arrives anew, at the
end).  The public constructor validates its pairs first.  The ring
operations merge the terms they generate from valid operands unchecked, so
every term map's order follows from the operands' orders.  So do ``const``,
``var`` and ``affine``, once ``var`` has checked its index and ``affine`` the
length of its coefficients.  Float evaluation sums in it.

``Substitution`` is the one substitution kernel, shared by
``Poly.substitute_affine`` and ``EPoly.restrict``: it sums c * rest * form^e
over the terms, with (rest, e) given by a split function per monomial and
form^e taken from a lazily extended power table.

Variable indices in the public API are 1-based, matching the conventional
names x1..xn and u1..un used by the text syntax.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Union

from .errors import DimensionError

Rat = Fraction
RatLike = Union[int, Fraction]
Mono = tuple[int, ...]  # exponents of x1..xn, then of u1..un


def var_pos(n: int, kind: str, i: int) -> int:
    """Position of the variable x_i or u_i (1-based i) in a monomial of ambient n."""
    if kind not in ("x", "u"):
        raise ValueError(f"variable kind must be 'x' or 'u', got {kind!r}")
    if not 1 <= i <= n:
        raise DimensionError(f"variable index {i} out of range 1..{n}")
    return i - 1 if kind == "x" else n + i - 1


def var_name(n: int, pos: int) -> tuple[str, int]:
    """The (kind, index) pair of the variable at ``pos`` of a monomial of ambient n."""
    return ("x", pos + 1) if pos < n else ("u", pos - n + 1)


def grlex_key(m: Mono) -> tuple:
    """Graded lexicographic sort key: total degree first, then lex on (x, u)."""
    return (sum(m), m)


def _as_rat(c: RatLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _merged(n: int, pairs: Iterable[tuple[Mono, Fraction]]) -> Poly:
    """The Poly of ``pairs`` (valid monomials, Fraction coefficients), unchecked."""
    canon: dict[Mono, Fraction] = {}
    for mono, c in pairs:
        if c:
            prev = canon.get(mono)
            s = c if prev is None else prev + c
            if s:
                canon[mono] = s
            else:
                del canon[mono]
    p = object.__new__(Poly)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "terms", canon)
    return p


def _unit(width: int, pos: int) -> Mono:
    """The monomial of ``width`` exponents with a single 1, at ``pos``."""
    return (0,) * pos + (1,) + (0,) * (width - pos - 1)


def _products(
    left: Iterable[tuple[Mono, Fraction]], right: Mapping[Mono, Fraction]
) -> Iterator[tuple[Mono, Fraction]]:
    """Every product of a term of ``left`` with a term of ``right``, unmerged."""
    for m1, c1 in left:
        for m2, c2 in right.items():
            yield tuple(map(add, m1, m2)), c1 * c2


class Poly:
    """Multivariate polynomial over Q in x1..xn, u1..un (sparse, canonical)."""

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[Mono, RatLike] | Iterable[tuple[Mono, RatLike]] | None = None,
    ):
        """Check ``terms`` (a mapping or (monomial, coefficient) pairs), then merge them."""
        if n < 0:
            raise ValueError("ambient variable count must be non-negative")
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        width = 2 * n
        checked = []
        for mono, coeff in pairs:
            if len(mono) != width:
                raise DimensionError(
                    f"monomial exponent length != twice the ambient count {n}: {mono}"
                )
            if min(mono, default=0) < 0:
                raise ValueError(f"negative exponent in monomial {mono}")
            checked.append((mono, _as_rat(coeff)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", _merged(n, checked).terms)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n, {})

    @classmethod
    def const(cls, n: int, value: RatLike) -> Poly:
        return _merged(n, [((0,) * (2 * n), _as_rat(value))])

    @classmethod
    def var(cls, n: int, kind: str, i: int) -> Poly:
        """The polynomial x_i or u_i (1-based index)."""
        return _merged(n, [(_unit(2 * n, var_pos(n, kind, i)), Fraction(1))])

    @classmethod
    def affine(cls, n: int, coeffs: Sequence[RatLike], const: RatLike = 0) -> Poly:
        """const + sum of coeffs[j] * v_j over the variables v = (x1..xn, u1..un)."""
        width = 2 * n
        if len(coeffs) != width:
            raise DimensionError(f"affine form needs {width} coefficients")
        pairs = [((0,) * width, _as_rat(const))]
        pairs += ((_unit(width, j), _as_rat(c)) for j, c in enumerate(coeffs))
        return _merged(n, pairs)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def degree_in(self, kind: str, i: int) -> int:
        """Degree in a single variable; 0 if absent, -1 for the zero polynomial."""
        pos = var_pos(self.n, kind, i)
        return max((m[pos] for m in self.terms), default=-1)

    def variables_used(self) -> set[tuple[str, int]]:
        """The (kind, index) pairs of variables with positive degree."""
        return {var_name(self.n, pos) for m in self.terms for pos, e in enumerate(m) if e}

    def u_exponent_vectors(self) -> set[tuple[int, ...]]:
        """Distinct u-block exponent vectors appearing in the polynomial."""
        n = self.n
        return {m[n:] for m in self.terms}

    def coefficient_height(self) -> int:
        """Max of |numerator| and denominator over all coefficients (0 if zero)."""
        h = 0
        for c in self.terms.values():
            h = max(h, abs(c.numerator), c.denominator)
        return h

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in decreasing graded-lex order (canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Mono, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    # -- ring operations -----------------------------------------------------

    def _check_same_ambient(self, other: Poly) -> None:
        if self.n != other.n:
            raise DimensionError(f"ambient mismatch: {self.n} != {other.n}")

    def __add__(self, other: Poly) -> Poly:
        self._check_same_ambient(other)
        return _merged(self.n, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> Poly:
        return _merged(self.n, ((m, -c) for m, c in self.terms.items()))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check_same_ambient(other)
        return _merged(self.n, _products(self.terms.items(), other.terms))

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: RatLike) -> Poly:
        c = _as_rat(c)
        if not c:
            return Poly.zero(self.n)
        return _merged(self.n, ((m, c * v) for m, v in self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not hashable

    def __repr__(self) -> str:
        return f"Poly(n={self.n}, terms={len(self.terms)})"

    # -- evaluation and calculus ----------------------------------------------

    def eval(self, point: Sequence) -> Fraction | float:
        """Evaluate at a point of 2n numbers, ordered (x1..xn, u1..un).

        Exact when the point entries are Fractions/ints; float inputs give a
        float result.
        """
        if len(point) != 2 * self.n:
            raise DimensionError(f"point length {len(point)} != {2 * self.n}")
        acc = None
        for mono, c in self.terms.items():
            term = c
            for v, e in zip(point, mono):
                if e:
                    term = term * v**e
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    def derivative(self, kind: str, i: int) -> Poly:
        """Exact formal partial derivative with respect to x_i or u_i."""
        pos = var_pos(self.n, kind, i)
        return _merged(
            self.n,
            ((_set_exponent(m, pos, m[pos] - 1), c * m[pos]) for m, c in self.terms.items() if m[pos]),
        )

    def substitute_affine(
        self,
        kind: str,
        i: int,
        coeffs: Sequence[RatLike],
        const: RatLike = 0,
    ) -> Poly:
        """Replace one variable by an affine form and expand canonically.

        ``coeffs`` has one entry per ambient variable, ordered
        (x1..xn, u1..un); the entry for the substituted variable itself is
        allowed (the identity substitution uses coefficient 1 there).
        """
        pos = var_pos(self.n, kind, i)
        form = Poly.affine(self.n, coeffs, const)
        return Substitution(form, lambda m: (_set_exponent(m, pos, 0), m[pos]))(self)

    def substitute_value(self, kind: str, i: int, value: RatLike) -> Poly:
        """Replace one variable by a rational constant."""
        return self.substitute_affine(kind, i, [0] * (2 * self.n), value)

    # -- content helpers -------------------------------------------------------

    def monomial_content(self) -> Mono:
        """Componentwise minimum exponent vector over all terms (the monomial gcd)."""
        if not self.terms:
            return (0,) * (2 * self.n)
        return tuple(map(min, zip(*self.terms)))


class Substitution:
    """p -> sum of c * rest * form^e over the terms c * mono of p.

    ``split(mono)`` gives (rest, e): the monomial without the substituted
    variable, and that variable's exponent.  Each power of ``form`` is
    computed once, on first need, and kept by the instance, so one instance
    serves every polynomial that takes the same form.  All products are
    merged at once.
    """

    def __init__(self, form: Poly, split: Callable[[Mono], tuple[Mono, int]]):
        self.form = form
        self.split = split
        self.powers = [Poly.const(form.n, 1)]

    def __call__(self, p: Poly) -> Poly:
        return _merged(self.form.n, self._pairs(p))

    def _pairs(self, p: Poly) -> Iterator[tuple[Mono, Fraction]]:
        powers = self.powers
        for mono, c in p.terms.items():
            rest, e = self.split(mono)
            while len(powers) <= e:
                powers.append(powers[-1] * self.form)
            yield from _products(((rest, c),), powers[e].terms)


def _set_exponent(mono: Mono, pos: int, e: int) -> Mono:
    """mono with exponent e at ``pos``."""
    return mono[:pos] + (e,) + mono[pos + 1 :]
