"""The integer rigorous arithmetic and exp core against Fraction references.

``intervals`` runs the rigorous interval arithmetic on integer (numerator,
denominator) ends that need not be in lowest terms: the ``rat_*`` functions,
their record ``RatInterval``, and the rigorous kernel of
``numeric.EvalPlan``.  ``util.ReferenceRatInterval`` does one normalized
Fraction per step.  Ends that are equal must stay exact, every other end
must be floored or ceiled onto the 2^-96 grid, and the result must be
rounded to floats by value, so the two must give the same enclosure, bit
for bit.  ``exp_fixed``, the fixed-point exp core, must give the bounds of
``util.reference_exp_bounds`` whatever the representation of its argument.

The inputs include point boxes and zero-width sides, sides straddling 0
under even and odd powers, coefficients 1/3 and 1/10, rational spectra, exp
arguments from -50 to +40 and the exact zero of 2 x1 + 1 - e^x1 at 0.  The
module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_rational_kernel.py
"""

import random
import struct
import sys
from fractions import Fraction

from expalg.epoly import EPoly
from expalg.intervals import (
    Box,
    RatInterval,
    exp_fixed,
    rat_add,
    rat_exp,
    rat_float_pair,
    rat_mul,
    rat_pow,
    rat_scale,
)
from expalg.numeric import EvalPlan, TightEvaluator
from expalg.parsing import parse_epoly
from expalg.poly import Poly

from util import (
    ReferenceRatInterval,
    ReferenceTightEvaluator,
    mono,
    rand_fraction,
    reference_exp_bounds,
    reference_interval_eval,
)

#: coefficients and spectrum entries with non-dyadic denominators
RATIONALS = (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 10), Fraction(-7, 10), Fraction(5, 2), Fraction(-2), 1)


def bits(pair) -> bytes:
    """The bytes of a float pair, so -0.0 and 0.0 differ."""
    return struct.pack("<2d", *pair)


def ends(iv: ReferenceRatInterval, rng: random.Random) -> tuple[int, int, int, int]:
    """The ends of iv as integers, each fraction scaled out of lowest terms at random."""
    m1, m2 = rng.choice((1, 1, 3, 1 << 40, 6)), rng.choice((1, 1, 5, 1 << 96, 10))
    return (iv.lo.numerator * m1, iv.lo.denominator * m1, iv.hi.numerator * m2, iv.hi.denominator * m2)


def same(got: tuple[int, int, int, int], ref: ReferenceRatInterval) -> bool:
    """Equal values at both ends."""
    return Fraction(got[0], got[1]) == ref.lo and Fraction(got[2], got[3]) == ref.hi


def rand_rat_interval(rng: random.Random) -> ReferenceRatInterval:
    """A point, an exact side, a grid interval or one straddling or touching 0."""
    kind = rng.randrange(5)
    a = rand_fraction(rng, span=9, den=12)
    if kind == 0:
        return ReferenceRatInterval.exact_point(a)
    b = a + Fraction(rng.randint(1, 40), rng.choice((1, 3, 8, 10, 1 << 60)))
    if kind == 1:
        return ReferenceRatInterval(a, b, exact=True)
    if kind == 2:
        return ReferenceRatInterval(a, b)
    if kind == 3:
        return ReferenceRatInterval(-abs(a) - Fraction(1, 7), abs(b) + Fraction(1, 10))
    return ReferenceRatInterval(Fraction(0), abs(b), exact=True) if rng.random() < 0.5 else ReferenceRatInterval(-abs(b), Fraction(0))


def test_rat_operations_match_reference():
    rng = random.Random(2101)
    for _ in range(1500):
        a, b = rand_rat_interval(rng), rand_rat_interval(rng)
        ea, eb = ends(a, rng), ends(b, rng)
        assert same(rat_add(ea, eb), a + b), (a.lo, a.hi, b.lo, b.hi)
        assert same(rat_mul(ea, eb), a * b), (a.lo, a.hi, b.lo, b.hi)
        k = rng.randint(1, 5)
        assert same(rat_pow(ea, k), a.pow_int(k)), (a.lo, a.hi, k)
        c = rng.choice(RATIONALS) * rng.choice((1, -1))
        assert same(rat_scale(ea, c.numerator * 3, c.denominator * 3), a.scale(c)), (a.lo, a.hi, c)
        assert rat_float_pair(ea) == a.to_float_pair(), (a.lo, a.hi)


def test_rat_exp_matches_reference():
    rng = random.Random(2102)
    for _ in range(120):
        lo = Fraction(rng.randint(-5000, 4000), rng.choice((100, 3, 7, 1 << 30)))
        width = rng.choice((Fraction(0), Fraction(1, 1 << 90), Fraction(1, 3), Fraction(5, 2)))
        a = ReferenceRatInterval(lo, lo + width, exact=True)
        assert same(rat_exp(ends(a, rng)), a.exp()), (a.lo, a.hi)


def test_rat_interval_record_matches_reference():
    """``RatInterval`` is the record over the same integer functions."""
    rng = random.Random(2103)
    for _ in range(300):
        a, b = rand_rat_interval(rng), rand_rat_interval(rng)
        ra, rb = RatInterval(a.lo, a.hi, exact=True), RatInterval(b.lo, b.hi, exact=True)
        k = rng.randint(1, 4)
        c = rng.choice(RATIONALS)
        for got, ref in ((ra + rb, a + b), (ra * rb, a * b), (ra.pow_int(k), a.pow_int(k)), (ra.scale(c), a.scale(c))):
            assert (got.lo, got.hi) == (ref.lo, ref.hi), (a.lo, a.hi, b.lo, b.hi)
        hi = a.hi + abs(b.hi) + Fraction(1, 3)  # off the grid, so both round it
        got, ref = RatInterval(a.lo, hi), ReferenceRatInterval(a.lo, hi)
        assert (got.lo, got.hi) == (ref.lo, ref.hi) and got.to_float_pair() == ref.to_float_pair(), (a.lo, hi)


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


def outcome(evaluate, *args):
    """The bytes of the enclosure, or the error when it lies beyond the float range."""
    try:
        got = evaluate(*args)
    except OverflowError:
        return "OverflowError"
    return bits(got if isinstance(got, tuple) else (got.lo, got.hi))


def rigorous_plan_matches(f: EPoly, bounds) -> None:
    got = outcome(EvalPlan(f, exact=True), bounds)
    ref = outcome(reference_interval_eval, f, Box.from_bounds(bounds), "rigorous")
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
    """A point, a straddling side, a side touching 0, or one putting an exp argument in [-50, 40]."""
    kind = rng.randrange(5)
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
    t = rng.uniform(-50.0, 40.0) / float(rng.choice(entries))
    return (t, t + rng.choice((0.0, 1e-6, 0.5)))


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


def test_exact_zero_on_point_box():
    """2 x1 + 1 - e^x1 vanishes at 0: every step is an exact point."""
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    assert bits(EvalPlan(f, exact=True)([(0.0, 0.0)])) == bits((0.0, 0.0))
    rigorous_plan_matches(f, [(0.0, 0.0)])
    tight = TightEvaluator(f, "rigorous")(Box.from_bounds([(0.0, 0.0)]))
    assert (tight.lo, tight.hi) == (0.0, 0.0)


def test_rigorous_tight_evaluator_matches_reference():
    """The mean-value form over rigorous plans, each keeping its exp enclosures across boxes."""
    rng = random.Random(2106)
    for _ in range(8):
        f = rational_epoly(rng, 2)
        if f.is_zero():
            continue
        tight, ref = TightEvaluator(f, "rigorous"), ReferenceTightEvaluator(f, "rigorous")
        for _ in range(4):
            box = Box.from_bounds([side(rng, f) for _ in range(2)])
            assert outcome(tight, box) == outcome(ref, box), (f, box)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
