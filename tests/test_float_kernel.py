"""The float kernel of ``EvalPlan`` and ``EPoly.float_evaluator`` against references.

``EvalPlan.__call__`` runs a fast plan on local floats, with the outward
rounding inlined and products taken from the sign-case table.  It must give
the enclosure, bit for bit and sign bits included, that one ``pair_*`` call
per interval operation gives (``util.reference_pair_plan``) and that one
validated interval object per step gives (``util.reference_interval_eval``).
The boxes include -0.0 and subnormal endpoints, infinite endpoints (0 * inf),
exp arguments around 709.78 and -745 (overflow and underflow) and sides of
every sign pattern; the coefficients include subnormal and huge ones.

``EPoly.float_evaluator`` keeps only the nonzero spectrum entries of each
group; at finite points it must give the value of the generator over every
entry (``util.reference_float_evaluator``) bit for bit.  Its groups with
several entries sum them with ``sum``, which is compensated from Python 3.12
on, so a plain ``+=`` loop fails this file there.  The module needs no
pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_float_kernel.py
"""

import math
import random
import struct
from fractions import Fraction

from expalg.epoly import EPoly
from expalg.numeric import EvalPlan, brute_force_sign_scan
from expalg.parsing import parse_epoly, parse_poly
from expalg.poly import Poly

from util import (
    mono,
    rand_epoly,
    rand_fraction,
    rand_nonzero_poly,
    reference_float_evaluator,
    reference_interval_eval,
    reference_pair_plan,
    run_standalone,
)

INF = math.inf
#: endpoints with a sign, a zero sign, a subnormal or an infinity to test
SPECIAL = (
    -INF, -1e300, -2.5, -1.0, -1e-310, -5e-324, -0.0,
    0.0, 5e-324, 1e-310, 0.5, 3.0, 1e300, INF,
)
#: exp arguments around the overflow (709.78) and underflow (-745) of exp
EXP_EDGES = (709.78, 709.8, 710.0, -744.4, -745.1, -746.0)
#: coefficient scales: subnormal, below the smallest subnormal, and huge
SCALES = (1, 1, 1, Fraction(1, 10**310), Fraction(1, 10**330), 10**290)
PATTERNS = ("neg", "pos", "straddle", "zero-lo", "zero-hi", "zeros", "special", "exp")


def bits(pair) -> bytes:
    """The bytes of a float pair, so -0.0 and 0.0 differ."""
    return struct.pack("<2d", *pair)


def side(rng: random.Random, pattern: str, edges: list[float]) -> tuple[float, float]:
    """One box side of the given sign pattern."""
    if pattern == "neg":
        hi = -rng.choice((5e-324, 1e-310, rng.uniform(0.0, 4.0)))
        return (hi - rng.choice((0.0, 1e-300, 0.25, 3.0)), hi)
    if pattern == "pos":
        lo = rng.choice((5e-324, 1e-310, rng.uniform(0.0, 4.0)))
        return (lo, lo + rng.choice((0.0, 1e-300, 0.25, 3.0)))
    if pattern == "straddle":
        return (-rng.uniform(1e-3, 4.0), rng.uniform(1e-3, 4.0))
    if pattern == "zero-lo":
        return (rng.choice((0.0, -0.0)), rng.choice((5e-324, 1.0, 3.0, INF)))
    if pattern == "zero-hi":
        return (rng.choice((-5e-324, -1.0, -3.0, -INF)), rng.choice((0.0, -0.0)))
    if pattern == "zeros":
        return rng.choice(((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0)))
    if pattern == "special":
        lo, hi = sorted((rng.choice(SPECIAL), rng.choice(SPECIAL)))
        return (lo, hi)
    e = rng.choice(edges) if edges else rng.choice(EXP_EDGES)
    return (e - rng.choice((0.0, 1e-9, 0.5)), e + rng.choice((0.0, 1e-9, 0.5)))


def extreme_epoly(rng: random.Random, n: int) -> EPoly:
    """A seeded EPoly whose coefficients may be subnormal, round to 0 or be huge."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        spec = tuple(Fraction(rng.choice((0, 0, 1, -1, Fraction(1, 3), Fraction(-5, 2)))) for _ in range(n))
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            key = mono(tuple(rng.randint(0, 3) for _ in range(n)), (0,) * n)
            c = rand_fraction(rng) * rng.choice(SCALES)
            if c:
                coeffs[key] = c
        terms[spec] = Poly(n, coeffs)
    return EPoly(n, terms)


def exp_edges(f: EPoly) -> list[float]:
    """Coordinates where one spectrum entry alone puts exp at its edges."""
    entries = {q for spec in f.terms for q in spec if q}
    return [t / float(q) for q in entries for t in EXP_EDGES]


def check_plan(f: EPoly, bounds: list[tuple[float, float]]) -> None:
    got = EvalPlan(f)(bounds)
    assert bits(got) == bits(reference_pair_plan(f, bounds)), (f, bounds, got)
    ref = reference_interval_eval(f, bounds)
    assert bits(got) == bits((ref.lo, ref.hi)), (f, bounds, got, ref)


def test_plan_kernel_matches_both_references():
    rng = random.Random(1901)
    checked = 0
    for case in range(600):
        n = 1 + case % 3
        f = rand_epoly(rng, n, max_exp=3) if case % 2 else extreme_epoly(rng, n)
        edges = exp_edges(f)
        for _ in range(4):
            bounds = [side(rng, rng.choice(PATTERNS), edges) for _ in range(n)]
            check_plan(f, bounds)
            checked += 1
    assert checked == 2400


def test_plan_kernel_on_every_sign_pattern_pair():
    """Every ordered pair of side patterns, on single-group and mixed EPolys."""
    rng = random.Random(1902)
    for a in PATTERNS:
        for b in PATTERNS:
            for _ in range(12):
                f = extreme_epoly(rng, 2) if rng.random() < 0.5 else rand_epoly(rng, 2, max_exp=3)
                edges = exp_edges(f)
                check_plan(f, [side(rng, a, edges), side(rng, b, edges)])


def test_plan_kernel_at_exp_overflow_and_underflow():
    """One group, so the bits of value * exp reach the result unabsorbed."""
    rng = random.Random(1903)
    singles = [parse_epoly(text) for text in ("x1*u1", "(x1 - 2)*u1", "(3 - x1^2)*u1", "-u1", "(x1^3 + 1/10)*u1^2")]
    singles.append(EPoly(1, {(Fraction(-1, 3),): parse_poly("x1^3 + 1/10", 1)}))
    for f in singles:
        for e in exp_edges(f):
            for lo, hi in ((e, e), (e - 0.5, e), (e, e + 0.5), (e - 1e-9, e + 1e-9), (-INF, e), (e, INF)):
                check_plan(f, [(lo, hi)])
            check_plan(f, [side(rng, "exp", [e])])


#: the smallest subnormal as a rational, 2^-1074
TINY = Fraction(1, 1 << 1074)


def special_sides() -> list[tuple[float, float]]:
    """Every side with endpoints in ``SPECIAL`` (-0.0 and 0.0 both), and sides at the exp edges."""
    sides = [(lo, hi) for i, lo in enumerate(SPECIAL) for hi in SPECIAL[i:]]
    return sides + [(e, e) for e in EXP_EDGES] + [(-e, -e) for e in EXP_EDGES]


def test_plan_kernel_on_monomials_with_special_constants():
    """c x1^k e^(q x1) and sums of two such terms on every pair of special endpoints.

    Subnormal constants and ones that round to a signed zero make the
    products meet 0 * inf, so every product's NaN fix is reached; single
    groups let each product's bits reach the result.
    """
    sides = special_sides()
    constants = (-TINY / 2, 5 * TINY / 2, -3 * TINY, Fraction(1, 3), -(10**290))
    entries = (0, 1, TINY / 3, -TINY / 3, Fraction(-5, 2))
    for c in constants:
        for q in entries:
            for k in (1, 2, 3):
                f = EPoly(1, {(Fraction(q),): Poly(1, {(k, 0): c})})
                for bounds in sides:
                    check_plan(f, [bounds])
    rng = random.Random(1905)
    for _ in range(150):
        terms = {(k, 0): rng.choice(constants) * rng.randint(1, 5) for k in rng.sample(range(4), 2)}
        f = EPoly(1, {(Fraction(rng.choice(entries)),): Poly(1, terms)})
        for bounds in rng.sample(sides, 20):
            check_plan(f, [bounds])


def float_bits(v: float) -> bytes:
    return struct.pack("<d", v)


def value_or_error(evaluate, point):
    try:
        return float_bits(evaluate(point))
    except OverflowError:
        return "OverflowError"


def test_float_evaluator_matches_reference_at_finite_points():
    rng = random.Random(1904)
    spectra = {
        1: [(0,), (1,), (Fraction(-2, 3),)],
        2: [(0, 0), (1, 0), (0, Fraction(1, 3)), (1, -1), (Fraction(1, 3), Fraction(-5, 7))],
        3: [(0, 0, 0), (0, 2, 0), (1, 1, 1), (Fraction(1, 3), 0, Fraction(-2, 7)), (1, Fraction(1, 10), Fraction(-3, 7))],
    }
    for case in range(600):
        n = 1 + case % 3
        chosen = rng.sample(spectra[n], rng.randint(1, len(spectra[n])))
        f = EPoly(n, {tuple(map(Fraction, spec)): rand_nonzero_poly(rng, n, allow_u=False) for spec in chosen})
        if case % 5 == 0:
            f = rand_epoly(rng, n, max_exp=3)
        new, ref = f.float_evaluator(), reference_float_evaluator(f)
        for _ in range(8):
            scale = rng.choice((1.0, 10.0, 300.0))
            point = [rng.uniform(-scale, scale) for _ in range(n)]
            if rng.random() < 0.2:
                point[rng.randrange(n)] = rng.choice((0.0, -0.0, 5e-324, -1e-310))
            assert value_or_error(new, point) == value_or_error(ref, point), (f, point)


def test_float_evaluator_sums_several_entries_with_sum():
    """exp(x1 + x2 + x3) where the order of a plain float loop loses the 1."""
    f = parse_epoly("u1*u2*u3 + x1*u2", 3)
    new, ref = f.float_evaluator(), reference_float_evaluator(f)
    for point in ([1e16, 1.0, -1e16], [1e16, -1.0, -1e16], [0.1, 0.2, 0.3], [-1e-16, 1.0, 1e-16]):
        assert value_or_error(new, point) == value_or_error(ref, point), point


def test_brute_force_scan_counts_the_two_roots():
    assert brute_force_sign_scan(parse_epoly("2*x1 + 1 - exp(x1)"), (-5.0, 5.0)) == 2


if __name__ == "__main__":
    run_standalone(globals())
