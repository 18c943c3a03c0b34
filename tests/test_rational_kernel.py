"""The rigorous kernel and its rational exp core against references.

Rigorous ``numeric.EvalPlan`` runs the fast mode's inlined float-pair kernel,
whose sums and products are exactly ``pair_add`` and ``pair_mul``, with two
certified operations from ``intervals``: ``pair_pow_exact`` (exact endpoint
powers rounded outward) and ``enclose_exp`` (``exp_fixed`` rounded outward,
relative also below 0, or fixed bounds past the float range).  A group
without exponential is added without a product, and a point box gets the
exact value K * sum_t C_t e^t rounded outward.  ``util.reference_pair_plan``
runs the same plan as one call per operation, with the exp arguments and
point values found with Fractions, and the plan must match it bit for bit.  Independently, every enclosure
must contain the values of f at points of its box, computed with Fractions
and 1,024-bit ``exp_bounds``.  ``exp_fixed``, the fixed-point exp core, must
give the bounds of ``util.reference_exp_bounds`` whatever the
representation of its argument.

The inputs include point boxes and zero-width sides, sides straddling 0
under even and odd powers, coefficients 1/3 and 1/10, rational spectra, exp
arguments from -50 to +40 and across the edges of the float range, and the
exact zero of 2 x1 + 1 - e^x1 at 0; fixed cases cover groups without
exponential, powers past the float range and an underflowed exp times a
value straddling 0.  ``interval_eval`` must reject a rigorous box with an
infinite side, which has no exact value.  The module needs no pytest, so it also runs as a
script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_rational_kernel.py
"""

import math
import random
import struct
import sys
from fractions import Fraction

from expalg import intervals
from expalg.epoly import EPoly
from expalg.intervals import (
    RatInterval,
    enclose_exp,
    exp_bounds,
    exp_fixed,
    float_down,
    float_up,
    pair_pow_exact,
)
from expalg.numeric import EvalPlan, TightEvaluator, interval_eval
from expalg.parsing import parse_epoly
from expalg.poly import Poly

from util import (
    mono,
    reference_exp_bounds,
    reference_pair_plan,
    ReferenceTightEvaluator,
    run_standalone,
)

#: coefficients and spectrum entries with non-dyadic denominators
RATIONALS = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 10), Fraction(-7, 10), Fraction(5, 2), Fraction(-2), 1)
#: exp arguments around the edges of the float range: ln of the largest
#: float is 709.7827, and e^t is below the smallest subnormal for t < -745.14
EDGES = (709.5, 709.78, 709.7827, 709.79, 709.8, 710.0, 1e4, -744.4, -745.13, -745.2, -745.3, -800.0, -1e4)
MAX = sys.float_info.max


def bits(pair) -> bytes:
    """The bytes of a float pair, so -0.0 and 0.0 differ."""
    return struct.pack("<2d", *pair)


def outcome(evaluate, *args):
    """The bytes of the enclosure, or the name of the error."""
    try:
        got = evaluate(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return bits(got if isinstance(got, tuple) else (got.lo, got.hi))


def test_exp_core_matches_reference_from_minus_50_to_40():
    rng = random.Random(2104)
    qs = [Fraction(t) for t in range(-50, 41)] + [Fraction(t, 3) for t in range(-150, 121, 7)]
    qs += [Fraction(rng.randint(-50 << 96, 40 << 96), 1 << 96) for _ in range(40)]
    qs += [Fraction(rng.randint(-5000, 4000), rng.randint(1, 100)) for _ in range(40)]
    for q in qs:
        for bits_ in (96, 192):
            ref = reference_exp_bounds(q, bits_)
            for m in (1, 7, 1 << 50):
                lo, hi, work = exp_fixed(q.numerator * m, q.denominator * m, bits_)
                assert (Fraction(lo, 1 << work), Fraction(hi, 1 << work)) == ref, (q, bits_, m)


def exp_1024(q: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds for e^q from 1,024-bit ``exp_bounds``, relative also for q < 0."""
    if q < 0:
        lo, hi = exp_bounds(-q, 1024)
        return 1 / hi, 1 / lo
    return exp_bounds(q, 1024)


def test_certified_exp_and_pow_enclose_fraction_values():
    """``enclose_exp`` and ``pair_pow_exact`` against Fractions, across the float range's edges."""
    rng = random.Random(2102)
    qs = [Fraction(0), Fraction(1, 3), Fraction(-7, 10)] + [Fraction(t) for t in EDGES]
    qs += [Fraction(rng.randint(-5000, 4000), rng.choice((100, 3, 7, 1 << 30))) for _ in range(60)]
    qs += [Fraction(rng.uniform(-746.0, 710.0)) for _ in range(30)]
    for q in qs:
        lo, hi = enclose_exp(q.numerator, q.denominator)
        assert enclose_exp(q.numerator * 6, q.denominator * 6) == (lo, hi), q
        if q > Fraction(70979, 100):
            assert (lo, hi) == (MAX, math.inf), q
        elif q < Fraction(-7452, 10):
            assert (lo, hi) == (0.0, math.ulp(0.0)), q
        elo, ehi = exp_1024(q)
        assert Fraction(lo) <= elo and (hi == math.inf or ehi <= Fraction(hi)), q
        if Fraction(-7452, 10) <= q <= 709:  # relative error 2^-96: at most one float inside
            assert hi <= math.nextafter(math.nextafter(lo, math.inf), math.inf), q
    for _ in range(400):
        k = rng.randint(1, 7)
        scale = 10.0 ** rng.choice((0, 0, 1, -3, 60, -60, 200))
        lo, hi = sorted(rng.uniform(-3.0, 3.0) * scale for _ in range(2))
        lo, hi = sorted((rng.choice((lo, lo, 0.0, -0.0, hi)), hi))
        got = pair_pow_exact((lo, hi), k)
        powers = [Fraction(lo) ** k, Fraction(hi) ** k]
        if k % 2 == 0 and lo <= 0.0 <= hi:
            powers.append(Fraction(0))
        low, high = min(powers), max(powers)
        assert encloses(got, low, high), (lo, hi, k)
        if high <= MAX and low >= -MAX:  # tightest floats
            assert got == (float_down(low), float_up(high)), (lo, hi, k)


def test_rat_interval_is_a_validated_record():
    """``RatInterval`` keeps its Fraction ends, rejects lo > hi and does no arithmetic."""
    iv = RatInterval(Fraction(-1, 3), Fraction(2, 7))
    assert (iv.lo, iv.hi) == (Fraction(-1, 3), Fraction(2, 7))
    try:
        RatInterval(Fraction(1), Fraction(0))
    except ValueError:
        pass
    else:
        raise AssertionError("RatInterval accepted lo > hi")
    assert not any(hasattr(iv, op) for op in ("__add__", "__mul__", "pow_int", "scale", "exp", "to_float_pair"))


def rigorous_plan_matches(f: EPoly, bounds) -> None:
    got = outcome(EvalPlan(f, rigorous=True), bounds)
    ref = outcome(reference_pair_plan, f, bounds, True)
    assert got == ref, (f, bounds, got, ref)


def rational_epoly(rng: random.Random, n: int) -> EPoly:
    """A seeded EPoly with coefficients such as 1/3 and 1/10 and rational spectra."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        spec = tuple(Fraction(rng.choice((0, 0, 1, -1, Fraction(1, 3), Fraction(-1, 10), Fraction(5, 2)))) for _ in range(n))
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            key = mono(tuple(rng.randint(0, 4) for _ in range(n)), (0,) * n)
            c = rng.choice(RATIONALS) * rng.randint(-3, 3)
            if c:
                coeffs[key] = c
        if coeffs:
            terms[spec] = Poly(n, coeffs)
    return EPoly(n, terms)


def side(rng: random.Random, f: EPoly) -> tuple[float, float]:
    """A point, a straddling side, a side touching 0, or one putting an exp
    argument in [-50, 40] or across an edge of the float range."""
    kind = rng.randrange(6)
    if kind == 0:
        v = rng.choice((0.0, -0.0, 0.5, rng.uniform(-3.0, 3.0)))
        return (v, v)
    if kind == 1:
        return (-rng.uniform(1e-3, 3.0), rng.uniform(1e-3, 3.0))
    if kind == 2:
        return rng.choice(((0.0, rng.uniform(0.1, 2.0)), (-rng.uniform(0.1, 2.0), 0.0)))
    if kind == 3:
        lo = rng.uniform(-3.0, 3.0)
        return (lo, lo + rng.choice((1e-9, 0.25, 1.0)))
    entries = [q for spec in f.terms for q in spec if q] or [Fraction(1)]
    t = rng.uniform(-50.0, 40.0) if kind == 4 else rng.choice(EDGES)
    t /= float(rng.choice(entries))
    lo, hi = sorted((t, t + rng.choice((0.0, 1e-6, 0.5, -0.5))))
    return (lo, hi)


def test_rigorous_plan_matches_reference():
    rng = random.Random(2105)
    for case in range(100):
        n = 1 + case % 2
        f = rational_epoly(rng, n)
        if f.is_zero():
            continue
        for _ in range(3):
            rigorous_plan_matches(f, [side(rng, f) for _ in range(n)])


def test_rigorous_plan_straddling_powers():
    """c x1^k and (x1 + x2)-like sums over sides straddling 0, even and odd k."""
    for k in range(1, 7):
        for c in (Fraction(1, 3), Fraction(-1, 10)):
            f = EPoly(1, {(Fraction(0),): Poly(1, {(k, 0): c, (0, 0): Fraction(1, 10)})})
            for bounds in ((-0.75, 0.5), (-0.5, 0.75), (-2.0, 2.0), (0.0, 1.5), (-1.5, 0.0), (-0.0, 0.0)):
                rigorous_plan_matches(f, [bounds])
    polys = {(3, 2, 0, 0): Fraction(1, 3), (2, 1, 0, 0): Fraction(-1, 10)}
    f = EPoly(2, {(Fraction(0), Fraction(0)): Poly(2, polys), (Fraction(1, 3), Fraction(-1)): Poly(2, {(0, 0, 0, 0): 1})})
    for bounds in ([(-1.0, 0.5), (-0.25, 2.0)], [(-1.0, -1.0), (-0.5, 0.5)], [(0.0, 0.0), (0.0, 0.0)]):
        rigorous_plan_matches(f, bounds)


def test_rigorous_plan_groups_without_exponential():
    """A group without exponential is added as it is, alone or between
    groups with exponentials."""
    alone = EPoly(1, {(Fraction(0),): Poly(1, {(2, 0): Fraction(1, 3), (0, 0): Fraction(-1, 10)})})
    between = EPoly(
        1,
        {
            (Fraction(-1),): Poly(1, {(1, 0): Fraction(1, 3)}),
            (Fraction(0),): Poly(1, {(2, 0): Fraction(-1, 10), (0, 0): 1}),
            (Fraction(1, 3),): Poly(1, {(0, 0): Fraction(5, 2)}),
        },
    )
    assert [spec for spec, _ in between.sorted_terms()][1] == (Fraction(0),)
    for f in (alone, between):
        for bounds in ((0.25, 0.75), (-0.5, 0.75), (-3.0, -2.0), (0.1, 0.1), (-800.0, 800.0)):
            rigorous_plan_matches(f, [bounds])
    # not widened by the two-ulp pad of e^0 that fast mode multiplies by
    rigorous, fast = EvalPlan(alone, rigorous=True)([(0.25, 0.75)]), EvalPlan(alone)([(0.25, 0.75)])
    assert fast[0] < rigorous[0] < 0.0 < rigorous[1] < fast[1], (rigorous, fast)


def test_rigorous_plan_powers_beyond_the_float_range():
    """Powers whose exact ends overflow give the largest float or an infinity
    (``pair_pow_exact``), and the sign-case products take them as they are."""
    big = 1e200
    f = EPoly(
        2,
        {
            (Fraction(0), Fraction(0)): Poly(2, {(3, 0, 0, 0): Fraction(1, 3), (0, 2, 0, 0): Fraction(-1, 10)}),
            (Fraction(0), Fraction(1)): Poly(2, {(2, 0, 0, 0): Fraction(-7, 10), (1, 1, 0, 0): 1}),
        },
    )
    cases = (
        [(-big, big), (0.0, 1.0)],  # x1^3 -> (-inf, inf), x1^2 -> (0, inf)
        [(big, 10 * big), (-1.0, 1.0)],  # x1^3 and x1^2 -> (MAX, inf)
        [(-10 * big, -big), (-1.0, 0.0)],  # x1^3 -> (-inf, -MAX)
        [(-big, -big), (big, big)],  # point box: powers of single floats overflow
        [(0.5, 0.5), (-10 * big, big)],  # x2^2 -> (0, inf), e^x2 -> (0, inf)
    )
    for bounds in cases:
        rigorous_plan_matches(f, bounds)
    assert pair_pow_exact((big, 10 * big), 3) == (MAX, math.inf)
    assert pair_pow_exact((-10 * big, -big), 3) == (-math.inf, -MAX)


def test_rigorous_plan_underflowed_exp_times_straddling_value():
    """e^x1 below the smallest subnormal is (0, 5e-324); times a value that
    straddles 0 it gives a few subnormals on both sides: the product rounds
    to one, and the product and the sum each step outward once."""
    f = EPoly(2, {(Fraction(1), Fraction(0)): Poly(2, {(0, 1, 0, 0): 1, (0, 0, 0, 0): Fraction(-1, 2)})})
    for bounds in ([(-1000.0, -900.0), (0.0, 1.0)], [(-1000.0, -900.0), (0.75, 1.0)], [(-1000.0, -1.0), (0.0, 1.0)]):
        rigorous_plan_matches(f, bounds)
    tiny = math.ulp(0.0)
    assert EvalPlan(f, rigorous=True)([(-1000.0, -900.0), (0.0, 1.0)]) == (-3 * tiny, 3 * tiny)


def test_rigorous_exp_below_0_is_relative():
    """exp(x1) - 1/10^40 on [-100, -99] is about -1e-40 throughout: the
    rigorous enclosure excludes 0 and lies inside the fast one."""
    f = parse_epoly("exp(x1) - 1/10000000000000000000000000000000000000000")
    rigorous = EvalPlan(f, rigorous=True)([(-100.0, -99.0)])
    fast = EvalPlan(f)([(-100.0, -99.0)])
    assert rigorous[1] < 0.0, rigorous
    assert fast[0] <= rigorous[0] and rigorous[1] <= fast[1], (rigorous, fast)
    rigorous_plan_matches(f, [(-100.0, -99.0)])


def test_exact_zero_on_point_box():
    """2 x1 + 1 - e^x1 vanishes at 0: the point box gets the exact value."""
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    assert bits(EvalPlan(f, rigorous=True)([(0.0, 0.0)])) == bits((0.0, 0.0))
    rigorous_plan_matches(f, [(0.0, 0.0)])
    assert TightEvaluator(f, rigorous=True)([(0.0, 0.0)]) == (0.0, 0.0)


def test_rigorous_interval_eval_needs_finite_sides():
    """A rigorous box takes the exact value of each end, which an infinite
    end lacks: ``interval_eval`` rejects it with a ValueError that says so,
    even for x1 with no power or exp to certify.  Fast mode keeps accepting
    infinite sides."""
    inf = math.inf
    f = parse_epoly("x1")
    for side in ((-inf, 0.0), (0.0, inf), (-inf, inf), (inf, inf)):
        fast = interval_eval(f, [side])
        assert fast.lo <= side[0] and side[1] <= fast.hi, side
        try:
            interval_eval(f, [side], rigorous=True)
        except ValueError as exc:
            assert "rigorous evaluation needs finite sides" in str(exc), exc
        else:
            raise AssertionError(f"rigorous evaluation accepted the side {side}")
    for side in ((-1.0, 2.0), (-MAX, MAX)):
        got = interval_eval(f, [side], rigorous=True)
        assert got.lo <= side[0] and side[1] <= got.hi, side


def test_rigorous_tight_evaluator_matches_reference():
    """The mean-value form over rigorous plans, which share their exp enclosures across boxes."""
    rng = random.Random(2106)
    for _ in range(8):
        f = rational_epoly(rng, 2)
        if f.is_zero():
            continue
        tight, ref = TightEvaluator(f, rigorous=True), ReferenceTightEvaluator(f, rigorous=True)
        for _ in range(4):
            box = [side(rng, f) for _ in range(2)]
            assert outcome(tight, box) == outcome(ref, box), (f, box)


def value_bounds(f: EPoly, point: list[Fraction]) -> tuple[Fraction, Fraction]:
    """Bounds for f at a rational point: Fraction sums, each e^t by 1,024-bit ``exp_bounds``."""
    lo = hi = Fraction(0)
    for spec, a in f.sorted_terms():
        c = a.eval(point + [Fraction(0)] * f.n)
        elo, ehi = exp_1024(sum(q * x for q, x in zip(spec, point)))
        lo += c * (elo if c > 0 else ehi)
        hi += c * (ehi if c > 0 else elo)
    return lo, hi


def encloses(pair, low: Fraction, high: Fraction) -> bool:
    return (pair[0] == -math.inf or Fraction(pair[0]) <= low) and (pair[1] == math.inf or high <= Fraction(pair[1]))


def test_rigorous_enclosures_contain_fraction_values():
    """On seeded boxes, exp edges included, the plan's and the mean-value
    enclosures contain f at the corners, the midpoint and random points."""
    rng = random.Random(2107)
    checked = 0
    for case in range(60):
        n = 1 + case % 2
        f = rational_epoly(rng, n)
        if f.is_zero():
            continue
        plan, tight = EvalPlan(f, rigorous=True), TightEvaluator(f, rigorous=True)
        for _ in range(3):
            bounds = [side(rng, f) for _ in range(n)]
            got = plan(bounds)
            tight_got = tight(bounds)
            points = [[Fraction(rng.choice(b)) for b in bounds] for _ in range(2)]
            points.append([Fraction(0.5 * lo + 0.5 * hi) for lo, hi in bounds])
            points.append([Fraction(rng.uniform(lo, hi)) for lo, hi in bounds])
            for point in points:
                low, high = value_bounds(f, point)
                assert encloses(got, low, high), (f, bounds, point, got)
                assert encloses(tight_got, low, high), (f, bounds, point)
                checked += 1
    assert checked >= 300


def test_beyond_the_float_range_no_exp_core_runs():
    """Boxes reaching far past ln of the largest float get an infinite end,
    and no ``exp_fixed`` call sees an argument above 746 or below -746."""
    seen = []
    core = intervals.exp_fixed

    def spy(a, b, bits_=96):
        seen.append(Fraction(a, b))
        return core(a, b, bits_)

    intervals.exp_fixed = spy
    try:
        f = parse_epoly("exp(x1)")
        lo, hi = EvalPlan(f, rigorous=True)([(0.0, 1e6)])
        assert hi == math.inf and 0.99 < lo <= 1.0
        lo, hi = EvalPlan(f, rigorous=True)([(-1e6, -1e3)])
        assert lo <= 0.0 and 0.0 < hi <= math.ulp(0.0) * 4
        g = parse_epoly("exp(x1) - x2")
        lo, hi = TightEvaluator(g, rigorous=True)([(0.0, 1e6), (0.0, 1.0)])
        assert hi == math.inf and lo <= 0.0
    finally:
        intervals.exp_fixed = core
    assert seen and all(abs(q) <= 746 for q in seen), max(seen)


if __name__ == "__main__":
    run_standalone(globals())
