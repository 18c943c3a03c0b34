"""Exact steps are not rounded, in fast plans as in rigorous ones.

A fast ``EvalPlan`` takes its powers above the first and its exp from libm,
and a rigorous one certifies them; every other step is the same in both
modes.  x_i^1 is x_i's own bounds, and a group without exponential is added
as it is, without an exp.  So on an EPoly without exponential whose
monomials have every exponent at most 1, the two modes must give the same
bits on every finite box that is not a point (a rigorous point box gets the
exact value instead).  The boxes include -0.0 and subnormal ends.

e^x > 0, so ``pair_exp`` clamps its lower end at 0: where exp underflows,
at or below -745.2, that end is exactly 0.0, not a negative subnormal.  The
module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_exact_steps.py
"""

import math
import random
import struct
from fractions import Fraction

from expalg.epoly import EPoly
from expalg.intervals import pair_exp
from expalg.numeric import EvalPlan
from expalg.poly import Poly

from util import mono, rand_fraction, run_standalone

#: finite box sides with signed zeros, subnormals and wide ends
SIDES = (
    (-0.0, 0.0), (0.0, -0.0), (-0.0, 5e-324), (-5e-324, 0.0), (-1e-310, -0.0),
    (5e-324, 1e-310), (-1e-310, 5e-324), (-2.5, 3.0), (0.5, 0.75), (-3.0, -1.0),
    (0.0, 1e300), (-1e300, 1e300), (1.0, 1.0), (-0.0, -0.0), (5e-324, 5e-324),
)
#: coefficient scales: subnormal, below the smallest subnormal, and huge
SCALES = (1, 1, 1, Fraction(1, 10**310), Fraction(1, 10**330), 10**290)


def bits(pair) -> bytes:
    """The bytes of a float pair, so -0.0 and 0.0 differ."""
    return struct.pack("<2d", *pair)


def multilinear_epoly(rng: random.Random, n: int) -> EPoly:
    """A seeded EPoly without exponential and with every exponent at most 1."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = mono(tuple(rng.randint(0, 1) for _ in range(n)), (0,) * n)
        c = rand_fraction(rng) * rng.choice(SCALES)
        if c:
            terms[key] = c
    return EPoly(n, {(Fraction(0),) * n: Poly(n, terms)})


def test_fast_and_rigorous_plans_agree_without_exponential_and_higher_powers():
    rng = random.Random(3401)
    checked = 0
    for case in range(400):
        n = 1 + case % 3
        f = multilinear_epoly(rng, n)
        fast, rigorous = EvalPlan(f), EvalPlan(f, rigorous=True)
        for _ in range(6):
            bounds = [rng.choice(SIDES) for _ in range(n)]
            if all(lo == hi for lo, hi in bounds):
                continue  # a point box: the rigorous plan takes the exact value
            assert bits(fast(bounds)) == bits(rigorous(bounds)), (f, bounds)
            checked += 1
    assert checked > 1500


def test_exp_lower_end_is_zero_where_exp_underflows():
    for lo, hi in ((-745.2, -745.2), (-746.0, -745.2), (-1e300, -800.0), (-math.inf, -745.2), (-math.inf, -math.inf)):
        e_lo, e_hi = pair_exp((lo, hi))
        assert struct.pack("<d", e_lo) == struct.pack("<d", 0.0), (lo, hi, e_lo)
        assert e_hi > 0.0


if __name__ == "__main__":
    run_standalone(globals())
