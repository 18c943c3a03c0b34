"""Outward-rounded interval arithmetic, in two flavours.

Fast mode works on (lo, hi) float pairs: ``pair_add``, ``pair_mul``,
``pair_pow`` and ``pair_exp`` define the program's one float interval
arithmetic, and each pads its result by one ulp outward (two ulps for exp,
whose libm error is not formally bounded to a half ulp).  They are the
semantics: ``numeric.EvalPlan`` runs whole plans in an inlined kernel that
reproduces them bit for bit, and the mean-value step calls them directly.
``Interval`` is the validated record that boxes, root enclosures and reports
carry; it does no arithmetic.

Rigorous mode works on rational endpoints held as integers: the ``rat_*``
functions take and return (lo_num, lo_den, hi_num, hi_den).  Ring
operations are exact, ends that are equal stay exact, and every other end is
floored or ceiled onto a fixed dyadic grid so the numbers stay bounded; ends
are compared by cross-multiplication, so no fraction needs lowest terms.  exp
is enclosed by ``exp_fixed``, an argument-reduced Taylor series with an
explicit Lagrange remainder in integer fixed point: every intermediate value
is a numerator over a power of two, and so are the two bounds it returns.
``exp_bounds`` is the same enclosure as two Fractions, for exact signs.
``RatInterval`` is the record of a rigorous interval with Fraction ends,
over the same ``rat_*`` functions, as ``Interval`` is for float pairs.

One rule rounds a rational to floats: ``ratio_down`` and ``ratio_up`` give
the nearest float below and above n / d (``float_down`` and ``float_up`` of
a Fraction), and both ``enclose_rational_pair`` (a fast plan's constants)
and ``rat_float_pair`` (a rigorous result) return that pair.

Overflow in fast mode widens to an infinite endpoint rather than raising; a
rational beyond the float range raises ``OverflowError`` when it is rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Dyadic precision (bits after the binary point) for rigorous endpoints.
# 96 bits leaves ample headroom over a 2^-52 relative enclosure of e^q for
# q >= 0, even after repeated squarings in the argument reduction.  For
# q < 0 the error of exp_bounds is absolute, 2^-104 (see there): relative
# 2^-52 holds only down to q of about -36.
RIGOROUS_BITS = 96

_INF = math.inf


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


@dataclass(frozen=True)
class Interval:
    """Closed float interval [lo, hi] with lo <= hi.

    A validated record: arithmetic runs on (lo, hi) pairs (``pair_add`` and
    the rest below).
    """

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
        """0.5 * (lo + hi), or 0.5 * lo + 0.5 * hi where that sum overflows."""
        m = 0.5 * (self.lo + self.hi)
        if math.isinf(m) and math.isfinite(self.lo) and math.isfinite(self.hi):
            return 0.5 * self.lo + 0.5 * self.hi
        return m

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
    return (
        _next(_next(_safe_exp(a[0]), -_INF), -_INF),
        _next(_next(_safe_exp(a[1]), _INF), _INF),
    )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: one interval per dimension."""

    intervals: tuple[Interval, ...]

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[float, float]]) -> Box:
        return cls(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    def bounds(self) -> list[tuple[float, float]]:
        return [(iv.lo, iv.hi) for iv in self.intervals]

    def contains_box(self, other: Box) -> bool:
        return all(
            a.lo <= b.lo and b.hi <= a.hi
            for a, b in zip(self.intervals, other.intervals)
        )


# ---------------------------------------------------------------------------
# Rigorous arithmetic: rational endpoints on integers
# ---------------------------------------------------------------------------
#
# A rigorous interval is four integers (lo_num, lo_den, hi_num, hi_den), both
# denominators positive and neither fraction necessarily in lowest terms.
# Every rule depends on the values alone: ring operations are exact, a result
# whose ends are equal stays exact (so exact zeros survive), and any other
# result is floored and ceiled onto the grid of 2^-RIGOROUS_BITS, which keeps
# its numbers bounded.  Ends are compared by cross-multiplication.  The
# ``rat_*`` functions define this arithmetic, and the rigorous backend of
# ``numeric.EvalPlan`` runs whole plans on them.  ``RatInterval`` is their
# record with Fraction ends; ``round_down`` and ``round_up`` are the grid
# rule on Fractions.

RatEnds = tuple[int, int, int, int]

_GRID = 1 << RIGOROUS_BITS


def round_down(x: Fraction, bits: int = RIGOROUS_BITS) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def round_up(x: Fraction, bits: int = RIGOROUS_BITS) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def rat_interval(ln: int, ld: int, hn: int, hd: int) -> RatEnds:
    """[ln / ld, hn / hd] exact when its ends are equal, else on the grid."""
    if ln * hd == hn * ld:
        return (ln, ld, hn, hd)
    if ld != _GRID:
        ln = (ln << RIGOROUS_BITS) // ld
    if hd != _GRID:
        hn = -((-hn << RIGOROUS_BITS) // hd)
    return (ln, _GRID, hn, _GRID)


def rat_add(a: RatEnds, b: RatEnds) -> RatEnds:
    """a + b, each end summed over the least common denominator."""
    ln, ld, hn, hd = a
    bln, bld, bhn, bhd = b
    if ld == bld:
        ln += bln
    else:
        g = math.gcd(ld, bld)
        ld //= g
        ln, ld = ln * (bld // g) + bln * ld, ld * bld
    if hd == bhd:
        hn += bhn
    else:
        g = math.gcd(hd, bhd)
        hd //= g
        hn, hd = hn * (bhd // g) + bhn * hd, hd * bhd
    return rat_interval(ln, ld, hn, hd)


def rat_mul(a: RatEnds, b: RatEnds) -> RatEnds:
    """a b, its ends taken from the sign-case table of interval products.

    With exact products the table gives the min and max of the four
    endpoint products (Moore, Kearfott & Cloud, *Introduction to Interval
    Analysis*, SIAM 2009, section 2.2); only two straddling factors need a
    comparison.
    """
    aln, ald, ahn, ahd = a
    bln, bld, bhn, bhd = b
    if bln >= 0:  # b >= 0
        if aln >= 0:
            return rat_interval(aln * bln, ald * bld, ahn * bhn, ahd * bhd)
        if ahn <= 0:
            return rat_interval(aln * bhn, ald * bhd, ahn * bln, ahd * bld)
        return rat_interval(aln * bhn, ald * bhd, ahn * bhn, ahd * bhd)
    if bhn <= 0:  # b <= 0
        if aln >= 0:
            return rat_interval(ahn * bln, ahd * bld, aln * bhn, ald * bhd)
        if ahn <= 0:
            return rat_interval(ahn * bhn, ahd * bhd, aln * bln, ald * bld)
        return rat_interval(ahn * bln, ahd * bld, aln * bln, ald * bld)
    # b straddles 0
    if aln >= 0:
        return rat_interval(ahn * bln, ahd * bld, ahn * bhn, ahd * bhd)
    if ahn <= 0:
        return rat_interval(aln * bhn, ald * bhd, aln * bln, ald * bld)
    ln, ld = aln * bhn, ald * bhd
    n, d = ahn * bln, ahd * bld
    if n * ld < ln * d:
        ln, ld = n, d
    hn, hd = aln * bln, ald * bld
    n, d = ahn * bhn, ahd * bhd
    if n * hd > hn * d:
        hn, hd = n, d
    return rat_interval(ln, ld, hn, hd)


def rat_pow(a: RatEnds, k: int) -> RatEnds:
    """a^k for k >= 1."""
    ln, ld, hn, hd = a
    if k % 2 == 0 and ln <= 0 <= hn:
        if -ln * hd > hn * ld:
            hn, hd = -ln, ld
        return rat_interval(0, 1, hn**k, hd**k)
    if k % 2 == 0 and hn < 0:
        return rat_interval(hn**k, hd**k, ln**k, ld**k)
    return rat_interval(ln**k, ld**k, hn**k, hd**k)


def rat_scale(a: RatEnds, n: int, d: int) -> RatEnds:
    """a times the rational n / d, d > 0."""
    ln, ld, hn, hd = a
    if n >= 0:
        return rat_interval(ln * n, ld * d, hn * n, hd * d)
    return rat_interval(hn * n, hd * d, ln * n, ld * d)


def rat_exp(a: RatEnds, bits: int = RIGOROUS_BITS, memo: dict | None = None) -> RatEnds:
    """e^a: the lower end of ``exp_fixed`` at a's lower end, the upper at its upper.

    ``memo`` maps (numerator, denominator, bits) to ``exp_fixed``'s result,
    so a caller that meets the same arguments again can keep one.
    """
    ln, ld, hn, hd = a
    if memo is None:
        memo = {}
    lo_key = (ln, ld, bits)
    lo_e = memo.get(lo_key)
    if lo_e is None:
        lo_e = memo[lo_key] = exp_fixed(ln, ld, bits)
    hi_e = lo_e
    if ln * hd != hn * ld:
        hi_key = (hn, hd, bits)
        hi_e = memo.get(hi_key)
        if hi_e is None:
            hi_e = memo[hi_key] = exp_fixed(hn, hd, bits)
    return rat_interval(lo_e[0], 1 << lo_e[2], hi_e[1], 1 << hi_e[2])


def rat_float_pair(a: RatEnds) -> Pair:
    """Smallest float (lo, hi) enclosing the interval."""
    return (ratio_down(a[0], a[1]), ratio_up(a[2], a[3]))


class RatInterval:
    """Record of a rigorous interval with Fraction ends.

    Unequal ends land on the dyadic grid unless ``exact`` keeps them (as for
    box sides).  Its operations are the ``rat_*`` functions on the ends'
    numerators and denominators.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction, exact: bool = False):
        if lo > hi:
            raise ValueError("invalid rational interval")
        if exact or lo == hi:
            self.lo, self.hi = lo, hi
        else:
            self.lo, self.hi = round_down(lo), round_up(hi)

    @classmethod
    def exact_point(cls, v: Fraction | int) -> RatInterval:
        v = Fraction(v)
        return cls(v, v, exact=True)

    @classmethod
    def of_ends(cls, a: RatEnds) -> RatInterval:
        return cls(Fraction(a[0], a[1]), Fraction(a[2], a[3]), exact=True)

    def ends(self) -> RatEnds:
        return (self.lo.numerator, self.lo.denominator, self.hi.numerator, self.hi.denominator)

    def __add__(self, other: RatInterval) -> RatInterval:
        return RatInterval.of_ends(rat_add(self.ends(), other.ends()))

    def __mul__(self, other: RatInterval) -> RatInterval:
        return RatInterval.of_ends(rat_mul(self.ends(), other.ends()))

    def pow_int(self, k: int) -> RatInterval:
        """self^k for k >= 1."""
        return RatInterval.of_ends(rat_pow(self.ends(), k))

    def scale(self, c: Fraction) -> RatInterval:
        c = Fraction(c)
        return RatInterval.of_ends(rat_scale(self.ends(), c.numerator, c.denominator))

    def exp(self, bits: int = RIGOROUS_BITS) -> RatInterval:
        return RatInterval.of_ends(rat_exp(self.ends(), bits))

    def to_float_pair(self) -> Pair:
        """Smallest float (lo, hi) enclosing the interval."""
        return rat_float_pair(self.ends())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RatInterval({float(self.lo)}, {float(self.hi)})"


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
