"""Interval arithmetic soundness: float pairs, rounding of rationals and the exp enclosure."""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from expalg.intervals import (
    Interval,
    ceil_float,
    enclose_rational_pair,
    exp_bounds,
    float_down,
    float_up,
    floor_float,
    pair_add,
    pair_exp,
    pair_mul,
    pair_pow,
)

from util import ReferenceInterval, reference_enclose_rational


def test_interval_basics():
    iv = Interval(1.0, 2.0)
    assert iv.contains(1.5) and not iv.contains(2.5)
    assert iv.mid == 1.5
    assert Interval(-1.0, 1.0).contains_zero()
    assert Interval(0.5, 1.0).excludes_zero()
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_midpoint_where_the_sum_overflows():
    """mid is 0.5 * (lo + hi) where that sum is finite, bit for bit, and
    0.5 * lo + 0.5 * hi where it overflows."""
    rng = random.Random(19)
    for _ in range(2000):
        lo, hi = sorted(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 307) for _ in range(2))
        assert Interval(lo, hi).mid.hex() == (0.5 * (lo + hi)).hex()
    for lo, hi, mid in ((1e308, 1.7e308, 1.35e308), (-1.7e308, -1e308, -1.35e308), (1.7e308, 1.7e308, 1.7e308)):
        assert Interval(lo, hi).mid == mid
        assert lo <= Interval(lo, hi).mid <= hi
    assert Interval(0.0, math.inf).mid == math.inf
    assert Interval(-math.inf, -1.0).mid == -math.inf


def test_float_ops_enclose_exact_rational_results():
    rng = random.Random(41)
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ia, ib = enclose_rational_pair(a), enclose_rational_pair(b)
        assert _contains_exact(pair_add(ia, ib), a + b)
        assert _contains_exact(pair_add(ia, (-ib[1], -ib[0])), a - b)
        assert _contains_exact(pair_mul(ia, ib), a * b)
        k = rng.randint(1, 4)
        assert _contains_exact(pair_pow(ia, k), a**k)


def _contains_exact(pair, value: Fraction) -> bool:
    return Fraction(pair[0]) <= value <= Fraction(pair[1])


def test_exp_encloses_libm_neighbourhood():
    for x in [-10.0, -1.0, 0.0, 0.5, 1.0, 3.0]:
        lo, hi = pair_exp((x, x))
        assert lo <= math.exp(x) <= hi
        assert hi - lo <= 4 * math.ulp(math.exp(x))


def test_even_power_of_straddling_interval():
    lo, hi = pair_pow((-2.0, 1.0), 2)
    assert lo == 0.0 and hi >= 4.0


def _assert_encloses_power(pair, a, k):
    """pair encloses {x^k : x in a} for a finite or half-infinite interval a."""
    lo, hi = pair
    ends = [Fraction(v) ** k for v in a if math.isfinite(v)]
    if a[0] <= 0.0 <= a[1]:
        ends.append(Fraction(0))
    assert lo == -math.inf or Fraction(lo) <= min(ends)
    assert hi == math.inf or Fraction(hi) >= max(ends)


def test_power_beyond_float_range_widens_to_infinity():
    big = 1.7976931348623157e308
    v = 2.0**512  # v^2 = 2^1024 is just beyond the float range
    below = math.nextafter(v, 0.0)  # below^2 is just inside it
    cases = {
        ((below, below), 2): (math.nextafter(below**2, 0.0), math.nextafter(below**2, math.inf)),
        ((below, v), 2): (math.nextafter(below**2, 0.0), math.inf),
        ((v, v), 2): (big, math.inf),
        ((v, math.inf), 3): (big, math.inf),
        ((-v, -v), 3): (-math.inf, -big),
        ((-v, 1.0), 3): (-math.inf, math.nextafter(1.0, 2.0)),
        ((-v, 0.5), 2): (0.0, math.inf),
        ((-0.5, v), 4): (0.0, math.inf),
        ((-v, -below), 2): (math.nextafter(below**2, 0.0), math.inf),
    }
    for (a, k), expected in cases.items():
        got = pair_pow(a, k)
        assert got == expected, (a, k, got)
        _assert_encloses_power(got, a, k)


def test_float_rounding_pair_is_tight():
    """float_down(q) and float_up(q) are the nearest floats on either side of q."""
    big = Fraction(1.7976931348623157e308)
    ulp = Fraction(math.ulp(1.7976931348623157e308))
    tiny = Fraction(5e-324)
    exact = [Fraction(0), Fraction(3, 2), Fraction(-13, 4), Fraction(0.1), tiny, -tiny, big, -big]
    inexact = [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 10), Fraction(10**20 + 1), Fraction(-7, 10**30)]
    below_subnormal = [Fraction(1, 10**400), tiny / 2, tiny / 3, tiny * Fraction(2, 3)]
    near_max = [big - ulp / 3, big - ulp / 2, big + ulp / 4, big + ulp / 3]
    cases = exact + inexact + below_subnormal + [-q for q in below_subnormal] + near_max + [-q for q in near_max]
    for q in cases:
        lo, hi = float_down(q), float_up(q)
        assert lo <= q <= hi, q
        if q in exact:
            assert lo == hi == q
        else:
            assert lo < q < hi, q
            # one step beyond either bound crosses q: no float lies strictly between
            assert math.nextafter(lo, math.inf) > q and math.nextafter(hi, -math.inf) < q, q
        # rigorous mode's rounding agrees inside the float range ...
        assert (floor_float(q.numerator, q.denominator), ceil_float(q.numerator, q.denominator)) == (lo, hi)
    assert float_up(big + ulp / 4) == math.inf and float_down(-big - ulp / 4) == -math.inf
    for q in (big + ulp, Fraction(10**400)):
        with pytest.raises(OverflowError):
            float_down(q)
        with pytest.raises(OverflowError):
            float_up(-q)
        # ... and widens beyond it
        assert (floor_float(q.numerator, q.denominator), ceil_float(q.numerator, q.denominator)) == (big, math.inf)
        assert (floor_float(-q.numerator, q.denominator), ceil_float(-q.numerator, q.denominator)) == (-math.inf, -big)


def _fraction_float_down(q: Fraction) -> float:
    v = float(q)
    return math.nextafter(v, -math.inf) if Fraction(v) > q else v


def _fraction_float_up(q: Fraction) -> float:
    v = float(q)
    return math.nextafter(v, math.inf) if Fraction(v) < q else v


def _rounded(fn, q):
    """fn(q) as a hex string, which tells -0.0 from 0.0, or the exception type."""
    try:
        return fn(q).hex()
    except OverflowError:
        return "OverflowError"


def test_float_rounding_matches_fraction_comparison_on_seeded_rationals():
    """float_down and float_up give the bits of rounding by float(q) and a
    Fraction comparison, and raise where it does."""
    rng = random.Random(20)
    tiny = Fraction(5e-324)
    big = Fraction(1.7976931348623157e308)
    cases = [Fraction(0), tiny, tiny / 2, tiny / 3, Fraction(1, 10**400), big, big + 1, big * Fraction(3, 2)]
    for _ in range(3000):
        kind = rng.randrange(4)
        if kind == 0:  # ordinary magnitudes
            q = Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20))
        elif kind == 1:  # subnormal and below: multiples of 2^-1074 and rounding to +-0
            q = tiny * Fraction(rng.randint(-(1 << 60), 1 << 60), rng.randint(1, 1 << 58))
        elif kind == 2:  # huge numerators, around the top of the float range
            q = Fraction(rng.randint(1, 10**330), rng.randint(1, 10**25))
        else:  # long dyadic and non-dyadic denominators
            q = Fraction(rng.getrandbits(200) - (1 << 199), rng.choice((1 << rng.randrange(260), rng.randint(1, 1 << 200))))
        cases.append(q)
    cases += [-q for q in cases]
    seen = set()
    for q in cases:
        down, up = _rounded(float_down, q), _rounded(float_up, q)
        assert down == _rounded(_fraction_float_down, q), q
        assert up == _rounded(_fraction_float_up, q), q
        seen.update((down, up))
    assert {"OverflowError", "0x0.0p+0", "-0x0.0p+0", "0x0.0000000000001p-1022"} <= seen


def test_rational_constants_get_the_tightest_float_pair():
    """A plan's constants round by the one rule, (float_down(c), float_up(c))."""
    pinned = {
        Fraction(1, 3): (0.3333333333333333, 0.33333333333333337),
        Fraction(1, 10): (0.09999999999999999, 0.1),
        Fraction(-2, 7): (-0.28571428571428575, -0.2857142857142857),
    }
    for c, pair in pinned.items():
        assert enclose_rational_pair(c) == pair == (float_down(c), float_up(c)), c
        assert (floor_float(c.numerator, c.denominator), ceil_float(c.numerator, c.denominator)) == pair, c
        # consecutive floats on either side of c
        assert pair[0] < c < pair[1] and math.nextafter(pair[0], math.inf) == pair[1], c
    assert enclose_rational_pair(3) == (3.0, 3.0)
    for c in (Fraction(10**400), Fraction(-(10**400), 3)):
        with pytest.raises(OverflowError):
            enclose_rational_pair(c)


def test_exp_bounds_tightness_and_soundness():
    cases = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(5, 2),
        Fraction(-7, 3),
        Fraction(1, 1000),
        Fraction(8),
    ]
    for q in cases:
        lo, hi = exp_bounds(q)
        assert lo <= hi
        approx = Fraction(math.exp(float(q)))
        # libm's value must sit within a couple of float ulps of the enclosure
        slack = Fraction(4 * math.ulp(math.exp(float(q))))
        assert lo - slack <= approx <= hi + slack
        assert hi - lo <= abs(hi) * Fraction(1, 2**52)
    assert exp_bounds(Fraction(0)) == (1, 1)


def test_exp_bounds_error_relative_above_zero_absolute_below():
    ctx = Context(prec=100)

    def exp_ref(q):
        return Fraction(ctx.exp(ctx.divide(Decimal(q.numerator), Decimal(q.denominator))))

    bits = 96
    eps = Fraction(1, 2**bits)

    def rel_width(q):
        lo, hi = exp_bounds(q, bits)
        return (hi - lo) / exp_ref(q)

    for q in (Fraction(1, 3), Fraction(5), Fraction(50)):
        assert rel_width(q) < eps
    # Below zero the relative bound fails early: the error is absolute.
    assert rel_width(Fraction(-5)) < eps <= rel_width(Fraction(-6))
    assert 2.5e-10 < rel_width(Fraction(-50)) < 2.6e-10
    assert exp_bounds(Fraction(-2800), bits) == (0, Fraction(1, 2 ** (bits + 8)))
    rng = random.Random(41)
    for _ in range(200):
        q = Fraction(rng.randint(-60000, -1), 1000)
        lo, hi = exp_bounds(q, bits)
        e = exp_ref(q)
        slack = Fraction(1, 2 ** (bits + 8)) + e * eps / (1 - eps)
        assert lo <= e <= hi and e - lo < slack and hi - e < slack, q


def _bits(v):
    return (math.copysign(1.0, v), v)


def test_pair_ops_match_interval_methods_on_special_endpoints():
    """The float-pair operations repeat the reference interval methods bit for bit."""
    big = 1.7976931348623157e308
    values = [-math.inf, -big, -1e200, -1.5, -5e-324, -0.0, 0.0, 5e-324, 1.0, 3.25, 1e200, big, math.inf]
    ivs = [(lo, hi) for lo in values for hi in values if lo <= hi]

    def outcome(fn):
        try:
            lo, hi = fn()
        except OverflowError as exc:
            return type(exc)
        return _bits(lo), _bits(hi)

    def interval_outcome(fn):
        return outcome(lambda: (lambda iv: (iv.lo, iv.hi))(fn()))

    for a in ivs:
        ia = ReferenceInterval(*a)
        assert outcome(lambda: pair_exp(a)) == interval_outcome(ia.exp)
        for k in (1, 2, 3, 4):
            assert outcome(lambda: pair_pow(a, k)) == interval_outcome(lambda: ia.pow_int(k))
        for b in ivs:
            ib = ReferenceInterval(*b)
            assert outcome(lambda: pair_add(a, b)) == interval_outcome(lambda: ia + ib)
            assert outcome(lambda: pair_mul(a, b)) == interval_outcome(lambda: ia * ib)
    for v in values:
        if math.isfinite(v):
            for c in (Fraction(v), Fraction(v) + Fraction(1, 3), Fraction(v) / 3):
                expected = interval_outcome(lambda: reference_enclose_rational(c))
                assert outcome(lambda: enclose_rational_pair(c)) == expected
