"""Outward-rounded interval arithmetic on (lo, hi) float pairs.

``pair_add``, ``pair_mul``, ``pair_pow`` and ``pair_exp`` define the
program's one interval arithmetic, and each pads its result by one ulp
outward (two ulps for exp, whose libm error is not formally bounded to a
half ulp, and whose lower end is clamped at 0, as e^x > 0).  They are the
semantics: ``numeric.EvalPlan`` runs whole plans, fast and rigorous, in an
inlined kernel that reproduces them bit for bit, and the mean-value step
calls them directly.  A plan rounds no exact step: it takes x^1 as x and
adds a group without exponential without an exp.  A box or a cell is a
sequence of such pairs.  ``Interval``, which root enclosures and
``numeric.interval_eval`` return, is such a pair (a named tuple), validated
and doing no arithmetic, so it passes wherever a pair does.

Rigorous evaluation keeps the sums and products, whose IEEE results are
correctly rounded, and replaces the two operations that go through libm:
``pair_pow_exact`` takes the exact powers of the float ends, and
``enclose_exp`` encloses e^q for a rational q to a relative 2^-96 by
``exp_fixed``, an argument-reduced Taylor series with an explicit Lagrange
remainder in integer fixed point; both round their rational bounds outward.
Exact signs and fixed-point values sum ``exp_fixed``'s integers directly.

One rule rounds a rational to floats: ``ratio_down`` and ``ratio_up`` give
the nearest float below and above n / d (``float_down`` and ``float_up`` of
a Fraction), and ``enclose_rational_pair`` returns that pair.  They raise
``OverflowError`` beyond the float range; ``floor_float`` and
``ceil_float``, which rigorous evaluation uses, widen to the largest float
or an infinity instead, as the fast operations do.

No program path uses ``exp_bounds`` (``exp_fixed``'s enclosure as
Fractions) or ``RatInterval`` (a validated record with Fraction ends, as
``Interval`` is for floats).  They stay for the tests, which check the
exp sums and the rigorous kernel against ``exp_bounds``, and for the
benchmark's per-layer tracer, which wraps both by name.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

# Precision of the exp enclosures of rigorous evaluation, in bits: ample
# headroom over a 2^-52 relative enclosure of e^q, even after repeated
# squarings in the argument reduction, and for q < 0 too in ``enclose_exp``.
# The error of ``exp_bounds`` is absolute for q < 0, 2^-104 (see there).
RIGOROUS_BITS = 96

_INF = math.inf


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def midpoint(lo: float, hi: float) -> float:
    """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where that sum overflows."""
    m = 0.5 * (lo + hi)
    if math.isinf(m) and math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * lo + 0.5 * hi
    return m


class Interval(namedtuple("Interval", "lo hi")):
    """Closed float interval [lo, hi] with lo <= hi: a validated (lo, hi) pair.

    ``__new__`` validates through ``__post_init__``, a method of its own
    only because the benchmark's tracer wraps it to count the intervals
    made; it folds into ``__new__`` once the benchmark reads the program's
    own counts.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        self = tuple.__new__(cls, (lo, hi))
        self.__post_init__()
        return self

    def __post_init__(self):
        lo, hi = self
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return midpoint(self.lo, self.hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0.0 or self.hi < 0.0


# ---------------------------------------------------------------------------
# Float pairs: the fast interval arithmetic
# ---------------------------------------------------------------------------
#
# Outward-rounded operations on plain (lo, hi) tuples, without building (and
# validating) an object per step.  Each rounds its float result outward with
# ``math.nextafter`` (one ulp, two for exp), which maps an infinity towards
# itself to itself.

Pair = tuple[float, float]

_next = math.nextafter


def ratio_down(n: int, d: int) -> float:
    """Largest float <= n / d for d > 0; OverflowError beyond the float range.

    ``n / d`` on ints is correctly rounded, and the nearest float v = a / b
    lies above n / d exactly when a d > n b.
    """
    v = n / d
    a, b = v.as_integer_ratio()
    return _next(v, -_INF) if a * d > n * b else v


def ratio_up(n: int, d: int) -> float:
    """Smallest float >= n / d for d > 0; OverflowError beyond the float range."""
    v = n / d
    a, b = v.as_integer_ratio()
    return _next(v, _INF) if a * d < n * b else v


def float_down(q: Fraction) -> float:
    """Largest float <= q; OverflowError beyond the float range."""
    return ratio_down(q.numerator, q.denominator)


def float_up(q: Fraction) -> float:
    """Smallest float >= q; OverflowError beyond the float range."""
    return ratio_up(q.numerator, q.denominator)


def enclose_rational_pair(c: Fraction | int) -> Pair:
    """The tightest float pair around c: (c, c) when c is a float."""
    c = Fraction(c)
    return (float_down(c), float_up(c))


def pair_add(a: Pair, b: Pair) -> Pair:
    lo = a[0] + b[0]
    hi = a[1] + b[1]
    if lo != lo:  # NaN: opposite infinities after an overflow
        lo = -_INF
    if hi != hi:
        hi = _INF
    return (_next(lo, -_INF), _next(hi, _INF))


def pair_mul(a: Pair, b: Pair) -> Pair:
    alo, ahi = a
    blo, bhi = b
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    # NaN: 0 * inf
    if p1 != p1:
        p1 = 0.0
    if p2 != p2:
        p2 = 0.0
    if p3 != p3:
        p3 = 0.0
    if p4 != p4:
        p4 = 0.0
    return (_next(min(p1, p2, p3, p4), -_INF), _next(max(p1, p2, p3, p4), _INF))


def _pow_or_inf(v: float, k: int) -> float:
    """v**k, or the infinity of its sign when it overflows."""
    try:
        return v**k
    except OverflowError:
        return -_INF if v < 0.0 and k % 2 else _INF


def pair_pow(a: Pair, k: int) -> Pair:
    """a^k for k >= 1.

    An endpoint power beyond the float range becomes an infinity, which the
    outward step turns into the largest finite float where it bounds the
    result from the finite side.
    """
    lo, hi = a
    if k % 2 == 0 and lo <= 0.0 <= hi:
        return (0.0, _next(_pow_or_inf(max(abs(lo), abs(hi)), k), _INF))
    lo = _pow_or_inf(lo, k)
    hi = _pow_or_inf(hi, k)
    if hi < lo:
        lo, hi = hi, lo
    return (_next(lo, -_INF), _next(hi, _INF))


def pair_exp(a: Pair) -> Pair:
    """e^a padded by two ulps, the lower end clamped at 0: e^x > 0."""
    return (
        max(_next(_next(_safe_exp(a[0]), -_INF), -_INF), 0.0),
        _next(_next(_safe_exp(a[1]), _INF), _INF),
    )


# ---------------------------------------------------------------------------
# Rigorous evaluation: certified powers and exp on float pairs
# ---------------------------------------------------------------------------
#
# IEEE 754 rounds a sum or product correctly (IEEE 754-2008, section 5.4),
# so ``pair_add`` and ``pair_mul`` are sound as they stand; libm's powers and
# exp carry no such guarantee, so rigorous evaluation replaces them.

_MAX = sys.float_info.max
_TINY = math.ulp(0.0)


def floor_float(n: int, d: int) -> float:
    """``ratio_down(n, d)``, or the largest float or -inf beyond the float range."""
    try:
        return ratio_down(n, d)
    except OverflowError:
        return _MAX if n > 0 else -_INF


def ceil_float(n: int, d: int) -> float:
    """``ratio_up(n, d)``, or inf or the most negative float beyond the float range."""
    try:
        return ratio_up(n, d)
    except OverflowError:
        return _INF if n > 0 else -_MAX


def pair_pow_exact(a: Pair, k: int) -> Pair:
    """a^k for k >= 1 from the exact powers of its float ends, rounded outward."""
    lo, hi = a
    if k == 1:
        return a
    if k % 2 == 0 and lo <= 0.0 <= hi:
        n, d = (hi if hi > -lo else -lo).as_integer_ratio()
        return (0.0, ceil_float(n**k, d**k))
    if k % 2 == 0 and hi < 0.0:
        lo, hi = -hi, -lo
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    return (floor_float(ln**k, ld**k), ceil_float(hn**k, hd**k))


def enclose_exp(n: int, d: int) -> Pair:
    """Float bounds for e^(n / d), d > 0: ``exp_fixed``'s rounded outward,
    below 0 their reciprocals for -n / d, so the error is relative.

    Past 709.79 or below -745.2 no ``exp_fixed`` runs: the bounds are the
    largest float and inf, or 0 and the smallest subnormal.
    """
    if 100 * n > 70979 * d:
        return (_MAX, _INF)
    if 10 * n < -7452 * d:
        return (0.0, _TINY)
    if n < 0:
        lo, hi, work = exp_fixed(-n, d, RIGOROUS_BITS)
        return (floor_float(1 << work, hi), ceil_float(1 << work, lo))
    lo, hi, work = exp_fixed(n, d, RIGOROUS_BITS)
    return (floor_float(lo, 1 << work), ceil_float(hi, 1 << work))


class RatInterval:
    """Closed rational interval [lo, hi] with Fraction ends, lo <= hi.

    A validated record, as ``Interval`` is for floats; it does no
    arithmetic.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("invalid rational interval")
        self.lo, self.hi = lo, hi


def exp_bounds(q: Fraction, bits: int = RIGOROUS_BITS) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds for e^q: ``exp_fixed`` as Fractions.

    For q >= 0 the error is relative: hi - lo < 2^-bits e^q.  For q < 0 it
    is absolute: each bound is the reciprocal of one for -q, floored or
    ceiled on the grid of w = bits + 8 bits, so each lies within
    2^-w + e^q 2^-bits / (1 - 2^-bits) of e^q, the rounding plus the
    propagated relative error.  At 96 bits the relative 2^-96 still holds
    at q = -5 but not at q = -6; at q = -50 the width is 2.6e-10 e^q, and
    e^-2800 gets the bounds 0 and 2^-104.
    """
    lo, hi, work = exp_fixed(q.numerator, q.denominator, bits)
    return Fraction(lo, 1 << work), Fraction(hi, 1 << work)


def exp_fixed(a: int, b: int, bits: int = RIGOROUS_BITS) -> tuple[int, int, int]:
    """Bounds for e^(a / b), b > 0, in integer fixed point: (lo, hi, work)
    for the enclosure [lo / 2^work, hi / 2^work].

    Strategy: for q = a / b > 0 reduce the argument by halving until r =
    q / 2^k is at most 1/4, sum the Taylor series for e^r until the next
    term is below the target, bound the tail by term * 4/3 (geometric, since
    r <= 1/4), then square the enclosure k times.  Negative arguments go
    through the exact reciprocal.  All intermediate endpoints are rounded
    outward to the dyadic grid at a few guard bits beyond the target.

    Each value on a grid of g bits is held as the integer numerator over
    2^g, so every step is one floor or ceiling division and the sums are
    integer additions; the enclosure is the one that exact rational steps
    rounded outward to the same grids give, and it depends on the value
    a / b alone.
    """
    if a == 0:
        return 1, 1, 0
    if a < 0:
        lo, hi, w = exp_fixed(-a, b, bits)
        work = bits + 8
        one = 1 << (work + w)
        return one // hi, -(-one // lo), work

    # k is the least integer with r = a / (b 2^k) <= 1/4.
    k = max(0, (4 * a).bit_length() - b.bit_length())
    if b << k < 4 * a:
        k += 1
    div = b << k

    work = bits + 2 * k + 16
    guard = work + 16
    # Numerators over 2^guard; the loop stops once the next term is at most
    # 2^-(work - 4) = 2^20 / 2^guard.
    term_lo = term_hi = lo_sum = hi_sum = 1 << guard
    i = 0
    while term_hi > 1 << 20:
        i += 1
        term_lo = term_lo * a // (div * i)
        term_hi = -(-term_hi * a // (div * i))
        lo_sum += term_lo
        hi_sum += term_hi
    tail = -(-4 * term_hi // 3)
    lo = lo_sum >> 16
    hi = -(-(hi_sum + tail) >> 16)

    # Numerators over 2^work.
    for _ in range(k):
        lo, hi = lo * lo >> work, -(-hi * hi >> work)
    return lo, hi, work
