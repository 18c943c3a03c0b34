"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from expalg import factor, numeric
from expalg.classify import IrredVerdict, _poly_nth_root, _specialize_to_line
from expalg.epoly import EPoly
from expalg.errors import DimensionError, HypothesisViolation, InternalInvariantError, ParseError
from expalg.factor import (
    dadd,
    dderiv,
    ddeg,
    dmul,
    dneg,
    dpow,
    dprimitive,
    dscale,
    dsub,
    dtrim,
    over_common_denominator,
)
from expalg.hyperplanes import Hyperplane
from expalg.intervals import (
    RIGOROUS_BITS,
    Interval,
    Pair,
    enclose_exp,
    enclose_rational_pair,
    float_down,
    float_up,
    pair_add,
    pair_exp,
    pair_mul,
    pair_pow,
    pair_pow_exact,
)
from expalg.numeric import RootCert
from expalg.parsing import format_poly
from expalg.poly import Poly, var_pos


def mono(x, u) -> tuple[int, ...]:
    """The monomial with x-exponents ``x`` and u-exponents ``u``."""
    return (*x, *u)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_poly(
    rng: random.Random,
    n: int,
    max_terms: int = 4,
    max_exp: int = 2,
    allow_u: bool = True,
) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        x = tuple(rng.randint(0, max_exp) for _ in range(n))
        u = tuple(rng.randint(0, max_exp) if allow_u else 0 for _ in range(n))
        c = rand_fraction(rng)
        if c:
            terms[mono(x, u)] = terms.get(mono(x, u), Fraction(0)) + c
    return Poly(n, terms)


def rand_nonzero_poly(rng: random.Random, n: int, **kw) -> Poly:
    while True:
        p = rand_poly(rng, n, **kw)
        if not p.is_zero():
            return p


def rand_point(rng: random.Random, count: int, span: int = 3) -> list[Fraction]:
    return [rand_fraction(rng, span=span, den=5) for _ in range(count)]


def embed_on_hyperplane(normal: tuple[int, ...], rest_values) -> list[float]:
    """Point of {normal . x = 0} with the non-pivot coordinates given (exact for Fractions)."""
    n = len(normal)
    pivot = max(range(n), key=lambda j: (abs(normal[j]), -j))
    rest = [j for j in range(n) if j != pivot]
    full = [0.0] * n
    for value, j in zip(rest_values, rest):
        full[j] = value
    full[pivot] = -sum(normal[j] * full[j] for j in rest) / normal[pivot]
    return full


def reference_eval_float(f: EPoly, point) -> float:
    """Float value of f, converting every coefficient at each call.

    ``EPoly.eval_float`` and ``EPoly.float_evaluator`` must reproduce it
    bit for bit at float points.
    """
    if len(point) != f.n:
        raise DimensionError(f"point length {len(point)} != {f.n}")
    full = list(point) + [0.0] * f.n  # u-block unused in coefficients
    acc = 0.0
    for spec, a in f.terms.items():
        dot = sum(float(q) * v for q, v in zip(spec, point))
        acc += a.eval(full) * math.exp(dot)
    return acc


def rand_epoly(rng: random.Random, n: int, max_terms: int = 4, max_exp: int = 2) -> EPoly:
    """Random EPoly with rational spectra (as restriction produces) and x-only coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        spec = tuple(rand_fraction(rng, span=3, den=3) for _ in range(n))
        terms[spec] = rand_poly(rng, n, max_exp=max_exp, allow_u=False)
    return EPoly(n, terms)


def reference_float_evaluator(f: EPoly):
    """The float value of f as a function of the point, one generator per group.

    Every spectrum entry, zero or not, enters the exponent through ``sum``.
    ``EPoly.float_evaluator`` must reproduce it bit for bit at finite points.
    """
    n = f.n
    compiled = [
        (
            [float(q) for q in spec],
            [(float(c), [(j, e) for j, e in enumerate(m) if e]) for m, c in a.terms.items()],
        )
        for spec, a in f.terms.items()
    ]

    def value(point) -> float:
        if len(point) != n:
            raise DimensionError(f"point length {len(point)} != {n}")
        acc = 0.0
        for spec, monos in compiled:
            dot = sum(q * v for q, v in zip(spec, point))
            coeff = None
            for term, powers in monos:
                for j, e in powers:
                    term = term * point[j] ** e
                coeff = term if coeff is None else coeff + term
            acc += coeff * math.exp(dot)
        return acc

    return value


def reference_coefficient_groups(f: EPoly, point) -> dict[Fraction, Fraction]:
    """Exact value structure at a rational point: f(point) = sum_t c_t e^t.

    Groups the terms by the exact rational exponent t = s . point and sums
    the coefficient values in Fractions; zero sums are dropped.
    ``EPoly.scaled_ints`` must return the same exponents, as a / T, in the
    same order, each c_t times one positive factor.
    """
    if len(point) != f.n:
        raise DimensionError(f"point length {len(point)} != {f.n}")
    pt = [Fraction(v) for v in point]
    full = pt + [Fraction(0)] * f.n
    groups: dict[Fraction, Fraction] = {}
    for spec, a in f.terms.items():
        t = sum((q * v for q, v in zip(spec, pt)), Fraction(0))
        val = a.eval(full)
        s = groups.get(t, Fraction(0)) + val
        if s:
            groups[t] = s
        else:
            groups.pop(t, None)
    return groups


# ---------------------------------------------------------------------------
# Reference float interval arithmetic: one validated object per step, with
# the outward roundings written out.  The ``pair_*`` operations of
# ``expalg.intervals`` must reproduce it bit for bit.
# ---------------------------------------------------------------------------

_INF = math.inf


def _down(v: float) -> float:
    return v if v == -_INF else math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return v if v == _INF else math.nextafter(v, _INF)


def _pow_widened(v: float, k: int) -> float:
    """v**k, or the infinity of the sign of v^k beyond the float range."""
    try:
        return v**k
    except OverflowError:
        return math.copysign(_INF, v) if k % 2 else _INF


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


@dataclass(frozen=True)
class ReferenceInterval:
    """Closed float interval [lo, hi] with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where the finite ends' sum overflows."""
        m = 0.5 * (self.lo + self.hi)
        if math.isinf(m) and math.isfinite(self.lo) and math.isfinite(self.hi):
            return 0.5 * self.lo + 0.5 * self.hi
        return m

    @property
    def mag(self) -> float:
        """Upper bound for |v| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0.0 or self.hi < 0.0

    def intersect(self, other: ReferenceInterval) -> ReferenceInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return ReferenceInterval(lo, hi) if lo <= hi else None

    def __add__(self, other: ReferenceInterval) -> ReferenceInterval:
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        # opposite infinities only appear after an overflow widened a bound
        if math.isnan(lo):
            lo = -_INF
        if math.isnan(hi):
            hi = _INF
        return ReferenceInterval(_down(lo), _up(hi))

    def __neg__(self) -> ReferenceInterval:
        return ReferenceInterval(-self.hi, -self.lo)

    def __sub__(self, other: ReferenceInterval) -> ReferenceInterval:
        return self + (-other)

    def __mul__(self, other: ReferenceInterval) -> ReferenceInterval:
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        products = [0.0 if math.isnan(p) else p for p in products]  # 0 * inf
        return ReferenceInterval(_down(min(products)), _up(max(products)))

    def pow_int(self, k: int) -> ReferenceInterval:
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return ReferenceInterval(1.0, 1.0)
        if k % 2 == 0 and self.contains_zero():
            return ReferenceInterval(0.0, _up(_pow_widened(self.mag, k)))
        lo, hi = sorted((_pow_widened(self.lo, k), _pow_widened(self.hi, k)))
        return ReferenceInterval(_down(lo), _up(hi))

    def exp(self) -> ReferenceInterval:
        """Two ulps outward, and no lower end below 0 after an underflow."""
        lo = _down(_down(_safe_exp(self.lo)))
        return ReferenceInterval(lo if lo > 0.0 else 0.0, _up(_up(_safe_exp(self.hi))))

    def scale(self, c: Fraction) -> ReferenceInterval:
        return self * reference_enclose_rational(c)


def reference_point(v: float) -> ReferenceInterval:
    return ReferenceInterval(v, v)


def reference_enclose_rational(c: Fraction | int) -> ReferenceInterval:
    """The tightest float interval around c, found by stepping from float(c).

    ``float(c)`` raises OverflowError beyond the float range.  Each endpoint
    moves one float at a time while it is on the wrong side of c, compared
    exactly (a Fraction compares with any float, infinities included).
    """
    c = Fraction(c)
    lo = hi = float(c)
    while lo > c:
        lo = math.nextafter(lo, -_INF)
    while hi < c:
        hi = math.nextafter(hi, _INF)
    return ReferenceInterval(lo, hi)


# ---------------------------------------------------------------------------
# Reference box evaluators.  ``reference_pair_plan`` runs a plan as one
# ``pair_*`` call per interval operation; ``reference_interval_eval`` in fast
# mode builds one ReferenceInterval object per step.  The compiled
# evaluation plans of ``expalg.numeric`` must reproduce their enclosures bit
# for bit.
# ---------------------------------------------------------------------------


def reference_pair_plan(f: EPoly, bounds, rigorous: bool = False) -> Pair:
    """A plan of f run as one ``pair_*`` call per interval operation.

    Terms and groups in canonical order, each coefficient and spectrum entry
    enclosed by ``enclose_rational_pair``, each power x_i^e, e >= 2, computed
    once, and every value, exponent and sum starting from the pair (0, 0).
    The exact steps are not rounded: x_i^1 is x_i's bounds, and a group
    without exponential is not multiplied.  The float kernel of ``EvalPlan``
    must reproduce it bit for bit.

    ``rigorous`` takes the certified operations instead: ``pair_pow_exact``
    for powers, and for the exp of a group ``enclose_exp`` at the least and
    greatest values of its argument over the box, found exactly with
    Fractions at the box corners.  A point box gets the exact value instead
    (``reference_point_value``) unless an exponent lies beyond +-746.
    """
    if rigorous and all(lo == hi for lo, hi in bounds):
        point = reference_point_value(f, [Fraction(lo) for lo, _ in bounds])
        if point is not None:
            return point
    slots: dict[tuple[int, int], int] = {}
    groups = [
        (
            [(i, q) for i, q in enumerate(spec) if q],
            [
                (enclose_rational_pair(c), [slots.setdefault(v, len(slots)) for v in enumerate(mono) if v[1]])
                for mono, c in a.sorted_terms()
            ],
        )
        for spec, a in f.sorted_terms()
    ]
    power = pair_pow_exact if rigorous else pair_pow
    pows = [bounds[i] if e == 1 else power(bounds[i], e) for i, e in slots]
    acc = (0.0, 0.0)
    for spec, terms in groups:
        value = (0.0, 0.0)
        for c, term_slots in terms:
            term = c
            for k in term_slots:
                term = pair_mul(term, pows[k])
            value = pair_add(value, term)
        if spec and not rigorous:
            dot = (0.0, 0.0)
            for i, q in spec:
                dot = pair_add(dot, pair_mul(bounds[i], enclose_rational_pair(q)))
            value = pair_mul(value, pair_exp(dot))
        elif spec:
            low = sum(q * Fraction(bounds[i][0 if q > 0 else 1]) for i, q in spec)
            high = sum(q * Fraction(bounds[i][1 if q > 0 else 0]) for i, q in spec)
            e_lo = enclose_exp(low.numerator, low.denominator)[0]
            e_hi = enclose_exp(high.numerator, high.denominator)[1]
            value = pair_mul(value, (e_lo, e_hi))
        acc = pair_add(acc, value)
    return acc


def reference_point_value(f: EPoly, point: list[Fraction]) -> Pair | None:
    """Float bounds for f at a rational point from Fraction sums, or None.

    The terms are grouped by their exact exponent t and each e^t is enclosed
    by ``reference_exp_bounds`` at ``RIGOROUS_BITS``; the bounds of the sum
    are rounded outward, to the largest float or an infinity beyond the
    float range.  (0, 0) when every group cancels; None when some |t|
    exceeds 746.
    """
    groups: dict[Fraction, Fraction] = {}
    for spec, a in f.sorted_terms():
        t = sum(q * x for q, x in zip(spec, point))
        groups[t] = groups.get(t, 0) + a.eval(point + [Fraction(0)] * f.n)
    groups = {t: c for t, c in groups.items() if c}
    if not groups:
        return (0.0, 0.0)
    if any(abs(t) > 746 for t in groups):
        return None
    lo = hi = Fraction(0)
    for t, c in groups.items():
        elo, ehi = reference_exp_bounds(t, RIGOROUS_BITS)
        lo += c * (elo if c > 0 else ehi)
        hi += c * (ehi if c > 0 else elo)
    return (_float_or_edge(float_down, lo), _float_or_edge(float_up, hi))


def _float_or_edge(rounding, q: Fraction) -> float:
    """``rounding(q)``, or where q is beyond the float range the bound on that side."""
    try:
        return rounding(q)
    except OverflowError:
        if rounding is float_down:
            return sys.float_info.max if q > 0 else -_INF
        return _INF if q > 0 else -sys.float_info.max


def _reference_poly(a: Poly, xs, zero, coeff):
    """Sum of the terms of a, an EPoly coefficient, over xs = (x1..xn)."""
    acc = zero
    for m, c in a.sorted_terms():
        term = coeff(c)
        for iv, e in zip(xs, m):
            if e:
                term = term * (iv if e == 1 else iv.pow_int(e))
        acc = acc + term
    return acc


def reference_interval_eval(f: EPoly, bounds, rigorous: bool = False) -> ReferenceInterval:
    """Natural extension of f over the box with the given float bounds, as
    ``interval_eval`` defines it.

    Fast evaluation builds one ReferenceInterval per step, except for the
    exact steps: x_i^1 is x_i, and a group without exponential takes no exp.
    Rigorous evaluation is ``reference_pair_plan`` with the certified
    operations.
    """
    if len(bounds) != f.n:
        raise DimensionError(f"box dimension {len(bounds)} != ambient {f.n}")
    xs = [ReferenceInterval(float(lo), float(hi)) for lo, hi in bounds]
    if rigorous:
        return ReferenceInterval(*reference_pair_plan(f, [(iv.lo, iv.hi) for iv in xs], rigorous=True))
    zero = reference_point(0.0)
    acc = zero
    for spec, a in f.sorted_terms():
        value = _reference_poly(a, xs, zero, reference_enclose_rational)
        if any(spec):
            dot = zero
            for q, iv in zip(spec, xs):
                if q:
                    dot = dot + iv.scale(q)
            value = value * dot.exp()
        acc = acc + value
    return acc


class ReferenceTightEvaluator:
    """Natural extension intersected with mean-value forms, on ReferenceInterval objects."""

    def __init__(self, f: EPoly, rigorous: bool = False, order: int = 2):
        self.rigorous = rigorous
        self.order = order
        self.derivs = {(): f}
        frontier = [()]
        for _ in range(order):
            new_frontier = []
            for path in frontier:
                for i in range(1, f.n + 1):
                    key = tuple(sorted(path + (i,)))
                    if key not in self.derivs:
                        self.derivs[key] = self.derivs[path].derivative(i)
                    new_frontier.append(key)
            frontier = sorted(set(new_frontier))

    def __call__(self, bounds) -> ReferenceInterval:
        return self._eval((), bounds, self.order)

    def _eval(self, path, bounds, depth: int) -> ReferenceInterval:
        g = self.derivs[path]
        nat = reference_interval_eval(g, bounds, self.rigorous)
        if depth == 0 or nat.excludes_zero() or nat.width < 1e-14:
            return nat
        ivs = [ReferenceInterval(float(lo), float(hi)) for lo, hi in bounds]
        mids = tuple(reference_point(iv.mid) for iv in ivs)
        mv = reference_interval_eval(g, [(m.lo, m.hi) for m in mids], self.rigorous)
        for i, (iv, m) in enumerate(zip(ivs, mids), start=1):
            if iv.width == 0.0:
                continue
            gi = self._eval(tuple(sorted(path + (i,))), bounds, depth - 1)
            mv = mv + gi * (iv - m)
        out = nat.intersect(mv)
        if out is None:
            raise InternalInvariantError("sound enclosures are disjoint")
        return out


# ---------------------------------------------------------------------------
# Reference rigorous exp: one normalized Fraction per step, each rounded
# outward to its dyadic grid.  ``intervals.exp_bounds`` and ``exp_fixed``
# must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _grid_down(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.floor(x * (1 << bits)), 1 << bits)


def _grid_up(x: Fraction, bits: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << bits)), 1 << bits)


def reference_exp_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Lower/upper bounds for e^q, as ``exp_bounds`` defines them."""
    if q == 0:
        return Fraction(1), Fraction(1)
    if q < 0:
        lo, hi = reference_exp_bounds(-q, bits)
        work = bits + 8
        return (
            _grid_down(Fraction(1) / hi, work),
            _grid_up(Fraction(1) / lo, work),
        )
    k = 0
    r = q
    quarter = Fraction(1, 4)
    while r > quarter:
        r /= 2
        k += 1
    work = bits + 2 * k + 16
    guard = work + 16
    target = Fraction(1, 1 << (work - 4))
    term_lo = term_hi = Fraction(1)
    lo_sum = hi_sum = Fraction(1)
    i = 0
    while term_hi > target:
        i += 1
        term_lo = _grid_down(term_lo * r / i, guard)
        term_hi = _grid_up(term_hi * r / i, guard)
        lo_sum = _grid_down(lo_sum + term_lo, guard)
        hi_sum = _grid_up(hi_sum + term_hi, guard)
    tail = _grid_up(term_hi * Fraction(4, 3), guard)
    lo = _grid_down(lo_sum, work)
    hi = _grid_up(hi_sum + tail, work)
    for _ in range(k):
        lo, hi = _grid_down(lo * lo, work), _grid_up(hi * hi, work)
    return lo, hi


# ---------------------------------------------------------------------------
# Reference divisor hunt: the irreducibility oracle before its hunt was
# pruned by the line images, and multivariate leading-term division.  The
# oracle must give the same verdicts; its hunt checks exactly the candidates
# of ``reference_linear_candidates`` whose restriction divides every image.
# ---------------------------------------------------------------------------


def reference_trial_divide(p: Poly, d: Poly) -> Poly | None:
    """Exact quotient p / d by graded-lex leading-term division on whole
    Polys, or None.  Each step cancels the remainder's leading term and adds
    only smaller ones, so the loop ends because grlex is a well-order."""
    n = p.n
    quo = Poly.zero(n)
    rem = p
    lead_d, c_d = d.leading_term()
    while not rem.is_zero():
        lead_r, c_r = rem.leading_term()
        diff_x = tuple(a - b for a, b in zip(lead_r[:n], lead_d[:n]))
        diff_u = tuple(a - b for a, b in zip(lead_r[n:], lead_d[n:]))
        if any(e < 0 for e in diff_x) or any(e < 0 for e in diff_u):
            return None
        t = Poly(p.n, {mono(diff_x, diff_u): c_r / c_d})
        quo = quo + t
        rem = rem - t * d
    return quo


def reference_linear_candidates(p: Poly, height: int = 2, max_active: int = 5):
    """Every primitive affine form in the active variables, in hunt order."""
    active = sorted(p.variables_used())
    if not active or len(active) > max_active:
        return
    n = p.n
    for consts in itertools.product(range(-height, height + 1), repeat=len(active) + 1):
        coeffs, const = consts[:-1], consts[-1]
        if all(c == 0 for c in coeffs) or next(c for c in coeffs if c) < 0:
            continue
        if math.gcd(*consts) != 1:
            continue
        terms = {}
        if const:
            terms[mono((0,) * n, (0,) * n)] = Fraction(const)
        for (kind, idx), c in zip(active, coeffs):
            if c:
                e = tuple(int(j == idx - 1) for j in range(n))
                zero = (0,) * n
                terms[mono(e, zero) if kind == "x" else mono(zero, e)] = Fraction(c)
        yield Poly(n, terms)


def reference_filtered_candidates(p: Poly, lines, height: int = 2, max_active: int = 5):
    """``classify._linear_candidates`` by enumeration: every tuple (c, c0) of
    the span, in ``itertools.product`` order, kept when it is primitive,
    sign-canonical and passes ``reference_may_divide`` on every line."""
    active = sorted(p.variables_used())
    if not active or len(active) > max_active:
        return
    n = p.n
    pos = [var_pos(n, kind, idx) for kind, idx in active]
    filters = [([A[j] for j in pos], [B[j] for j in pos], l, roots) for A, B, l, roots in lines]
    for consts in itertools.product(range(-height, height + 1), repeat=len(active) + 1):
        coeffs, const = consts[:-1], consts[-1]
        if all(c == 0 for c in coeffs) or next(c for c in coeffs if c) < 0:
            continue
        if math.gcd(*consts) != 1:
            continue
        if not all(reference_may_divide(coeffs, const, f) for f in filters):
            continue
        form = [0] * (2 * n)
        for j, c in zip(pos, coeffs):
            form[j] = c
        yield Poly.affine(n, form, const)


def reference_may_divide(coeffs, const: int, line_filter) -> bool:
    """Whether c.v + c0 restricts on the filter's line to a divisor of its
    image: alpha = c.A, beta = c0 l + c.B, and either alpha = 0 and
    beta != 0, or alpha r0 + beta r1 = 0 for one of its roots r0/r1."""
    A, B, l, roots = line_filter
    alpha = sum(c * x for c, x in zip(coeffs, A))
    beta = const * l + sum(c * x for c, x in zip(coeffs, B))
    if not alpha:
        return beta != 0
    return any(alpha * r0 + beta * r1 == 0 for r0, r1 in roots)


def reference_specialize_to_line(p: Poly, a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """``classify._specialize_to_line`` on Fractions: the image of p under
    every variable -> a_i t + b_i, one product of linear factors per monomial."""
    acc: list[Fraction] = []
    for m, c in p.terms.items():
        term = [Fraction(c)]
        for i, e in enumerate(m):
            if e:
                lin = [b[i], a[i]] if a[i] else [b[i]]
                for _ in range(e):
                    term = dmul(term, lin)
        acc = dadd(acc, term)
    return acc


def line_image(p: Poly, a: list[Fraction], b: list[Fraction]) -> tuple[list[int], list[int], list[int], int]:
    """(S, A, B, l): the oracle's integer image S of p on the line a t + b,
    with a = A / l and b = B / l over one denominator l."""
    AB, l = over_common_denominator(a + b)
    A, B = AB[: len(a)], AB[len(a) :]
    C, _ = over_common_denominator(list(p.terms.values()))
    return _specialize_to_line(p, C, A, B, l), A, B, l


def reference_ddivmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Division with remainder over Q; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / Fraction(b[-1])
    while len(rem) >= len(b) and dtrim(rem):
        shift = len(rem) - len(b)
        q = rem[-1] * inv_lead
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
        dtrim(rem)
    return dtrim(quo), dtrim(rem)


def reference_gf_divmod(a, b, p) -> tuple[list[int], list[int]]:
    """``factor.gf_divmod`` reducing modulo p at every step: the dividend
    up front and each updated remainder coefficient.

    The reduced dividend is trimmed before its length is compared with the
    divisor's; without that, a dividend whose top coefficients vanish
    modulo p and whose reduced degree is below the divisor's takes one step
    at a negative shift and returns a wrong quotient."""
    if not b:
        raise ZeroDivisionError("gf division by zero")
    rem = dtrim([c % p for c in a])
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1] % p, -1, p)
    while len(rem) >= len(b) and dtrim(rem):
        shift = len(rem) - len(b)
        q = rem[-1] * inv % p
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - q * c) % p
        rem.pop()
        dtrim(rem)
    return dtrim(quo), dtrim(rem)


def reference_gf_factor_squarefree(f, p: int, rng: random.Random) -> list[list[int]]:
    """Irreducible monic factors of a monic square-free f in GF(p)[x], p odd,
    sorted by (degree, coefficients): each distinct-degree part is split by
    equal-degree splitting as soon as it is found."""
    factors: list[list[int]] = []
    f = factor.gf_monic(f, p)
    x = [0, 1]
    h = x
    d = 0
    while ddeg(f) > 0:
        d += 1
        if 2 * d > ddeg(f):
            factors.append(f)
            break
        h = factor.gf_pow_mod(h, p, f, p)
        g = factor.gf_gcd(factor.gf_sub(h, x, p), f, p)
        if ddeg(g) > 0:
            factors.extend(factor._gf_equal_degree(g, d, p, rng))
            f, _ = reference_gf_divmod(f, g, p)
            h = reference_gf_divmod(h, f, p)[1]
        if ddeg(f) == 0:
            break
    return sorted(factors, key=lambda q: (ddeg(q), tuple(q)))


def reference_dgcd(a, b) -> list[Fraction]:
    """Monic gcd over Q by Euclid on Fractions (1 for coprime inputs, [] only
    if both are zero)."""
    fa = dtrim([Fraction(c) for c in a])
    fb = dtrim([Fraction(c) for c in b])
    while fb:
        fa, fb = fb, reference_ddivmod(fa, fb)[1]
    if not fa:
        return []
    return dscale(fa, 1 / fa[-1])


def reference_squarefree_decomposition(f) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm over Q: monic square-free parts with multiplicities."""
    f = dtrim([Fraction(c) for c in f])
    df = dderiv(f)
    g = reference_dgcd(f, df)
    if ddeg(g) <= 0:
        return [(dscale(f, 1 / f[-1]), 1)]
    b, _ = reference_ddivmod(f, g)
    c, _ = reference_ddivmod(df, g)
    d = dsub(c, dderiv(b))
    out: list[tuple[list[Fraction], int]] = []
    i = 1
    while ddeg(b) > 0:
        a = reference_dgcd(b, d)
        if ddeg(a) > 0:
            out.append((a, i))
        b, _ = reference_ddivmod(b, a)
        c, _ = reference_ddivmod(d, a)
        d = dsub(c, dderiv(b))
        i += 1
    return out


def reference_factor_dense(f) -> tuple[Fraction, list[tuple[list[int], int]]]:
    """``factor.factor_dense`` with the square-free split of
    ``reference_squarefree_decomposition`` over Q and the check in Fractions:
    (content, factors) with content * prod(factor^mult) == f."""
    f = dtrim([Fraction(c) for c in f])
    if ddeg(f) == 0:
        return f[0], []
    work = list(f)
    factors = []
    shift = 0
    while not work[0]:
        work.pop(0)
        shift += 1
    if shift:
        factors.append(([0, 1], shift))
    if ddeg(work) > 0:
        rng = random.Random(0)
        for part, mult in reference_squarefree_decomposition(work):
            _, prim = dprimitive(part)
            for irr in factor._factor_squarefree_int(prim, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (ddeg(fm[0]), tuple(fm[0]), fm[1]))
    lead_prod = 1
    for fac, mult in factors:
        lead_prod *= fac[-1] ** mult
    content = f[-1] / lead_prod
    check = [content]
    for fac, mult in factors:
        check = dmul(check, dpow([Fraction(c) for c in fac], mult))
    if dtrim(check) != f:
        raise InternalInvariantError("factorization does not reproduce the input")
    return content, factors


def reference_sturm_chain(f) -> list[list[Fraction]]:
    """The Sturm chain f, f', -rem(f, f'), ... over Q, up to gcd(f, f')."""
    chain = [dtrim([Fraction(c) for c in f])]
    chain.append(dderiv(chain[0]))
    while chain[-1]:
        rem = reference_ddivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(dneg(rem))
    return [c for c in chain if c]


def reference_count_real_roots(f) -> int:
    """Distinct real roots of f: sign variations of the Fraction Sturm chain
    at -infinity minus those at +infinity."""
    f = dtrim([Fraction(c) for c in f])
    if ddeg(f) <= 0:
        return 0

    def variations(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    chain = reference_sturm_chain(f)
    at_minus = [(1 if c[-1] > 0 else -1) * (-1) ** ddeg(c) for c in chain]
    at_plus = [1 if c[-1] > 0 else -1 for c in chain]
    return variations(at_minus) - variations(at_plus)


def reference_irreducibility_oracle(p: Poly, attempts: int = 8):
    """(verdict, images): the oracle with the unpruned hunt and
    ``reference_trial_divide``, for polynomials in two or more variables (in
    one, the oracle factors the polynomial itself).

    ``images`` lists (a, b, image) for every full-degree line image that
    factored, in the order the lines were drawn.
    """
    deg = p.total_degree()
    if deg == 1:
        return IrredVerdict("Irreducible", witness="linear polynomial"), []
    content = p.monomial_content()
    if sum(content) > 0:
        if len(p.terms) == 1:
            kind, idx = sorted(p.variables_used())[0]
            var = Poly.var(p.n, kind, idx)
            return IrredVerdict("Reducible", witness="monomial of degree >= 2", factor=var), []
        for kind, exps in (("x", content[: p.n]), ("u", content[p.n :])):
            for j, e in enumerate(exps):
                if e:
                    var = Poly.var(p.n, kind, j + 1)
                    witness = f"common factor {kind}{j + 1}"
                    return IrredVerdict("Reducible", witness=witness, factor=var), []
    for k in (2, 3, 5, 7):
        if deg % k == 0 and deg >= k:
            root = _poly_nth_root(p, k)
            if root is not None:
                return IrredVerdict("Reducible", witness=f"perfect {k}-th power", factor=root), []
    rng = random.Random(0)
    images = []
    for _ in range(max(1, attempts)):
        a = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2 * p.n)]
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2 * p.n)]
        if all(v == 0 for v in a):
            continue
        image = reference_specialize_to_line(p, a, b)
        if len(image) - 1 != deg:
            continue
        _, factors = reference_factor_dense(image)
        nontrivial = [(g, m) for g, m in factors if len(g) > 1]
        if len(nontrivial) == 1 and nontrivial[0][1] == 1 and len(nontrivial[0][0]) - 1 == deg:
            witness = "full-degree line specialization with irreducible image"
            return IrredVerdict("Irreducible", witness=witness, line=(tuple(a), tuple(b))), images
        images.append((a, b, image))
    for cand in reference_linear_candidates(p):
        quo = reference_trial_divide(p, cand)
        if quo is not None and not quo.is_constant():
            witness = "exact division by a small linear form"
            return IrredVerdict("Reducible", witness=witness, factor=cand), images
    return IrredVerdict("Unknown", witness="no certificate within the attempt budget"), images


def restriction_divides(cand: Poly, a, b, image) -> bool:
    """Whether the linear form cand, restricted to the line a t + b, divides
    the image: alpha t + beta with alpha = 0 and beta != 0, or with image
    vanishing at -beta/alpha (Fractions, Horner)."""
    alpha = beta = Fraction(0)
    for exps, c in cand.terms.items():
        if any(exps):
            j = exps.index(1)
            alpha += c * a[j]
            beta += c * b[j]
        else:
            beta += c
    if not alpha:
        return beta != 0
    t, value = -beta / alpha, Fraction(0)
    for c in reversed(image):
        value = value * t + c
    return value == 0


def reference_format_hyperplane(m: Hyperplane) -> str:
    """The equation of {m . x = 0} as ``format_poly`` prints its linear form.

    ``parsing.format_hyperplane`` writes it from the normal alone and must
    give the same text.
    """
    linear = Poly.affine(m.dimension, [*m.normal] + [0] * m.dimension)
    return f"{format_poly(linear)} = 0"


def reference_refine_bracket(sgn, lo: Fraction, hi: Fraction, tol: Fraction):
    """Plain bisection of a bracket with opposite endpoint signs, one exact
    sign per halving, down to width at most ``tol``: the answer
    ``numeric._refine_bracket`` must give."""
    s_lo, s_hi = sgn(lo), sgn(hi)
    if s_lo * s_hi >= 0:
        raise InternalInvariantError("refine_bracket needs opposite endpoint signs")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = sgn(mid)
        if s_mid == 0:
            # Exact rational root in the middle; shrink to the point.
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_isolate_roots_1d(f: EPoly, domain, tol: float = 1e-9):
    """``numeric.isolate_roots_1d`` as it was before monotone cells settled
    at any width: endpoint signs only on cells at most ``_CERT_WIDTH`` wide,
    and one-root brackets refined from a first bisection step by secant
    guesses.  The isolator must return the same certificates.  Exact signs
    go through ``numeric.sign_at_rational`` at call time, so they can be
    counted."""
    if f.n != 1:
        raise DimensionError("root isolation requires a 1-variable input")
    if f.is_zero():
        raise HypothesisViolation("function is identically zero")
    a = Fraction(domain[0])
    b = Fraction(domain[1])
    if not a < b:
        raise ValueError("domain must be a nonempty interval")
    if not tol > 0:
        raise ValueError("root tolerance must be positive")
    tol_q = Fraction(tol)
    evaluator = numeric.TightEvaluator(f)
    f_plan = evaluator.plan(())
    df_plan = evaluator.plan((1,))

    sign_cache: dict[Fraction, int] = {}

    def sgn(x: Fraction) -> int:
        if x not in sign_cache:
            sign_cache[x] = numeric.sign_at_rational(f, [x])
        return sign_cache[x]

    def deriv_nonzero(lo: Fraction, hi: Fraction) -> bool:
        dlo, dhi = df_plan([(float_down(lo), float_up(hi))])
        return dlo > 0.0 or dhi < 0.0

    def cert(kind: str, lo: Fraction, hi: Fraction) -> RootCert:
        enc = Interval(float_down(lo), float_up(hi))
        rlo, rhi = f_plan([(enc.lo, enc.hi)])
        return RootCert(enc, kind, max(abs(rlo), abs(rhi)))

    exact_roots: set[Fraction] = set()
    brackets: list[tuple[Fraction, Fraction, bool]] = []
    suspects: list[tuple[Fraction, Fraction]] = []
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        v_lo, v_hi = evaluator([(float_down(lo), float_up(hi))])
        if v_lo > 0.0 or v_hi < 0.0:
            continue
        width = hi - lo
        if width <= numeric._CERT_WIDTH:
            s_lo, s_hi = sgn(lo), sgn(hi)
            exact_roots.update(x for x, s in ((lo, s_lo), (hi, s_hi)) if s == 0)
            if deriv_nonzero(lo, hi):
                if s_lo * s_hi < 0:
                    brackets.append((lo, hi, True))
                continue
        if width <= tol_q / 4 or depth >= numeric._ISOLATE_MAX_DEPTH:
            suspects.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))

    uncertified: list[RootCert] = []
    for lo, hi in numeric._merge_cells(suspects):
        if any(lo <= r <= hi for r in exact_roots):
            continue
        if sgn(lo) * sgn(hi) < 0:
            brackets.append((lo, hi, False))
        elif not deriv_nonzero(lo, hi):
            uncertified.append(cert("UncertifiedTangential", lo, hi))

    certs: list[RootCert] = []
    value = f.float_evaluator()
    for lo, hi, one_root in brackets:
        lo, hi = _reference_secant_refine(sgn, value, lo, hi, tol_q, one_root)
        if lo == hi:
            exact_roots.add(lo)
        else:
            certs.append(cert("SignChange", lo, hi))

    h = max(tol_q / 2, Fraction(1, 1 << 40))
    for x in sorted(exact_roots):
        if deriv_nonzero(x - h, x + h):
            enc = Interval(float_down(x), float_up(x))
            certs.append(RootCert(enc, "NewtonContraction", 0.0))
        else:
            uncertified.append(cert("UncertifiedTangential", x - h, x + h))

    certs.sort(key=lambda r: r.enclosure.lo)
    for r1, r2 in zip(certs, certs[1:]):
        if r1.enclosure.hi >= r2.enclosure.lo:
            raise InternalInvariantError("certified enclosures overlap")
    return certs, sorted(uncertified, key=lambda r: r.enclosure.lo)


def _reference_secant_refine(sgn, value, lo: Fraction, hi: Fraction, tol: Fraction, one_root: bool):
    """Bisection's answer for [lo, hi] by quadratic interval refinement that
    starts with one bisection step and guesses each cell by one float
    secant step; a bracket not known to hold one root is only bisected."""
    s_lo, s_hi = sgn(lo), sgn(hi)
    if s_lo * s_hi >= 0:
        raise InternalInvariantError("refine_bracket needs opposite endpoint signs")
    ratio = (hi - lo) / tol
    levels = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    m = 1
    while levels:
        m = min(m, levels)
        j = _reference_secant_cell(value, lo, hi, m) if one_root and m > 1 else None
        if j is None:
            mid = (lo + hi) / 2
            s_mid = sgn(mid)
            if s_mid == 0:
                return mid, mid
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
            levels -= 1
            m = 2
            continue
        width = (hi - lo) / (1 << m)
        a, b = lo + j * width, lo + (j + 1) * width
        s_a = sgn(a)
        if s_a == 0:
            return a, a
        if s_a == s_lo:
            s_b = sgn(b)
            if s_b == 0:
                return b, b
            if s_b == s_hi:
                lo, hi = a, b
                levels -= m
                m *= 2
                continue
        m //= 2
    return lo, hi


def _reference_secant_cell(value, lo: Fraction, hi: Fraction, m: int):
    """Index of the cell of [lo, hi] split in 2^m where the float secant
    meets 0, or None when the floats give no hint."""
    x_lo, x_hi = float(lo), float(hi)
    if x_hi - x_lo <= math.ulp(max(abs(x_lo), abs(x_hi))) * (1 << m):
        return None
    try:
        v_lo, v_hi = value([x_lo]), value([x_hi])
    except OverflowError:
        return None
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
        return None
    if not (v_lo < 0.0 < v_hi or v_hi < 0.0 < v_lo):
        return None
    return min(int(v_lo / (v_lo - v_hi) * (1 << m)), (1 << m) - 1)


# ---------------------------------------------------------------------------
# Reference quadtree, as it was before certified cells were kept unevaluated:
# ``numeric.sample_zero_cells_2d`` must give the same cells.  The sign scan is
# an independent root count oracle for tests of the root isolator.
# ---------------------------------------------------------------------------


def reference_sample_zero_cells_2d(f: EPoly, bounds, max_depth: int, rigorous: bool = False) -> list:
    """The quadtree's cells when ``TightEvaluator`` decides every cell."""
    evaluator = numeric.TightEvaluator(f, rigorous)
    out = []
    stack = [(tuple((float(lo), float(hi)) for lo, hi in bounds), 0)]
    while stack:
        cell, depth = stack.pop()
        lo, hi = evaluator(cell)
        if lo > 0.0 or hi < 0.0:
            continue
        if depth >= max_depth:
            out.append(cell)
            continue
        (x_lo, x_hi), (y_lo, y_hi) = cell
        xm, ym = numeric.midpoint(x_lo, x_hi), numeric.midpoint(y_lo, y_hi)
        if not (x_lo < xm < x_hi and y_lo < ym < y_hi):
            raise ValueError("box sides are too narrow to halve max_depth times")
        for x in ((x_lo, xm), (xm, x_hi)):
            stack.append(((x, (y_lo, ym)), depth + 1))
            stack.append(((x, (ym, y_hi)), depth + 1))
    out.sort(key=lambda c: (c[0][0], c[1][0]))
    return out


def reference_brute_force_sign_scan(f: EPoly, domain, step: float = 1e-4) -> int:
    """Strict sign changes plus exact zeros of ``float_evaluator`` on the grid
    lo + k step; a zero resets the previous sign, so it counts once."""
    lo, hi = domain
    value = f.float_evaluator()
    count = 0
    steps = int(round((hi - lo) / step))
    prev = None
    for k in range(steps + 1):
        v = value([lo + k * step])
        if v == 0.0:
            count += 1
            prev = None
            continue
        if prev is not None and prev * v < 0:
            count += 1
        prev = v
    return count


# ---------------------------------------------------------------------------
# Reference parser: the tokenizer and recursive-descent parser as they were
# before operators became their own token kind, variables were built once
# per parse and sums were merged once.  ``parsing`` must give the same term
# maps, in the same order, and the same ParseError message and position.
# ---------------------------------------------------------------------------


class _RefToken(NamedTuple):
    kind: str  # NUM, VAR, EXP, OP, END
    text: str
    line: int
    column: int


_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

_REF_VAR_RE = re.compile(r"^(x|u)([1-9][0-9]*)$")


def _reference_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    line = 1
    col = 1
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            for ch in lexeme:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = m.end()
            continue
        if m.lastgroup == "num":
            tokens.append(_RefToken("NUM", lexeme, line, col))
        elif m.lastgroup == "name":
            if lexeme == "exp":
                tokens.append(_RefToken("EXP", lexeme, line, col))
            elif var := _REF_VAR_RE.match(lexeme):
                index = var.group(2)
                if len(index) > 2 or int(index) > 64:
                    raise ParseError("variable index too large (limit 64)", line, col)
                tokens.append(_RefToken("VAR", lexeme, line, col))
            else:
                raise ParseError(f"unknown name {lexeme!r}", line, col)
        else:
            tokens.append(_RefToken("OP", lexeme, line, col))
        col += len(lexeme)
        pos = m.end()
    tokens.append(_RefToken("END", "", line, col))
    return tokens


def _reference_literal(tok: _RefToken) -> int:
    """An integer literal's value; more than 4,300 significant digits, past
    CPython's default conversion limit, is a ParseError at the token."""
    digits = tok.text.lstrip("0") or "0"
    if len(digits) > 4300:
        raise ParseError("integer literal too long (limit 4300 digits)", tok.line, tok.column)
    return int(digits)


def _reference_size_checked(value: Poly, op: _RefToken) -> Poly:
    """``value``, or the ParseError at ``op`` for a coefficient whose
    numerator or denominator has more than 4,300 digits."""
    limit = 10**4300
    if any(max(abs(c.numerator), c.denominator) >= limit for c in value.terms.values()):
        raise ParseError("coefficient too long (limit 4300 digits)", op.line, op.column)
    return value


def _reference_split_var(tok: _RefToken) -> tuple[str, int]:
    m = _REF_VAR_RE.match(tok.text)
    return m.group(1), int(m.group(2))


class _ReferenceParser:
    """A fresh ``Poly.var`` per occurrence, and each sum added term by term."""

    def __init__(self, tokens: list[_RefToken], n: int, allow_exp: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.allow_exp = allow_exp

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def advance(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> Poly:
        negate = False
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        first_op = None
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                first_op = first_op or tok
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                # a sum is checked once, whole, at its first operator
                return value if first_op is None else _reference_size_checked(value, first_op)

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                value = _reference_size_checked(value * self.factor(), tok)
            else:
                return value

    def factor(self) -> Poly:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            num = self.peek()
            if num.kind != "NUM":
                raise ParseError("exponent must be a non-negative integer", num.line, num.column)
            self.advance()
            digits = num.text.lstrip("0") or "0"
            if len(digits) > 2 or int(digits) > 64:
                raise ParseError("exponent too large (limit 64)", num.line, num.column)
            value = _reference_size_checked(value ** int(digits), tok)
        return value

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            numerator = _reference_literal(tok)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.advance()
                den = self.peek()
                if den.kind != "NUM" or _reference_literal(den) == 0:
                    raise ParseError("denominator must be a positive integer", den.line, den.column)
                self.advance()
                return Poly.const(self.n, Fraction(numerator, _reference_literal(den)))
            return Poly.const(self.n, numerator)
        if tok.kind == "VAR":
            self.advance()
            kind, idx = _reference_split_var(tok)
            return Poly.var(self.n, kind, idx)
        if tok.kind == "EXP":
            if not self.allow_exp:
                raise ParseError(
                    "exp() is not allowed in polynomial input; use a u-variable "
                    "or the exponential-polynomial entry point",
                    tok.line,
                    tok.column,
                )
            self.advance()
            self.expect_op("(")
            arg = self.peek()
            if arg.kind != "VAR" or _reference_split_var(arg)[0] != "x":
                raise ParseError("exp() takes a single x-variable argument", arg.line, arg.column)
            self.advance()
            _, idx = _reference_split_var(arg)
            self.expect_op(")")
            return Poly.var(self.n, "u", idx)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.column)


def reference_parse(text: str, ambient: int | None = None, allow_exp: bool = False) -> Poly:
    """The Poly that ``parse_poly`` gives (``parse_epoly``'s Poly before its
    canonical expansion, with ``allow_exp``), or its ParseError."""
    tokens = _reference_tokenize(text)
    max_idx = max((_reference_split_var(t)[1] for t in tokens if t.kind == "VAR"), default=0)
    if ambient is not None:
        if ambient < 1:
            raise ParseError(f"ambient override {ambient} below 1", 1, 1)
        if ambient > 64:
            raise ParseError(f"ambient override {ambient} too large (limit 64)", 1, 1)
        if ambient < max_idx:
            raise ParseError(f"ambient override {ambient} below used index {max_idx}", 1, 1)
        n = ambient
    else:
        n = max(max_idx, 1)
    return _ReferenceParser(tokens, n, allow_exp).parse()


def run_standalone(namespace: dict) -> None:
    """Run a test module's ``test_*`` functions by name, without pytest: one
    ``ok  name`` line each, then ``N passed on Python X``."""
    tests = [(k, v) for k, v in sorted(namespace.items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
