"""The quadtree with zero certificates, and the chunked sign scan, against references.

``numeric.sample_zero_cells_2d`` keeps a cell without evaluating it when f
provably vanishes in it: one corner where f is exactly 0, or two corners
whose point enclosures exclude 0 with opposite signs.  Every enclosure is
sound, so the ``TightEvaluator`` would have kept such a cell too, and the
cells must be those of ``util.reference_sample_zero_cells_2d``, where it
decides every cell, in both modes.  The inputs put zero lines on the split
lines, through grid corners and across cells, isolated zeros on and off the
grid, sign-definite functions, corners whose enclosures contain 0 although
f does not vanish there, and boxes near +-1e300, where a corner's
enclosure is (-inf, inf).

``TightEvaluator`` evaluates each path's natural extension once per box,
and the quadtree and the root isolator hand it the ones they computed.
``numeric.brute_force_sign_scan`` evaluates its grid in chunks; each value
must be ``EPoly.float_evaluator``'s, and each count that of
``util.reference_brute_force_sign_scan``.  The module needs no pytest, so
it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_quadtree.py
"""

import math
import random
import struct
from fractions import Fraction

from expalg import numeric
from expalg.corpus import AXES_PAIR, CARTAN_UMBRELLA
from expalg.epoly import EPoly
from expalg.numeric import EvalPlan, TightEvaluator, brute_force_sign_scan, isolate_roots_1d, sample_zero_cells_2d
from expalg.parsing import parse_epoly
from expalg.poly import Poly

from util import (
    ReferenceTightEvaluator,
    rand_epoly,
    rand_poly,
    reference_brute_force_sign_scan,
    reference_sample_zero_cells_2d,
    run_standalone,
)

SQUARE = [(-2.0, 2.0), (-2.0, 2.0)]
BIG = "100000000000000000000"  # 10^20: its products cancel far above one ulp
#: zero lines on the split lines of SQUARE, through its grid corners, and across cells
LINES = (
    AXES_PAIR,
    "x1*x2",
    "(x1 - 1/2)*(x2 + 1)",
    "(x1 - 1)*exp(x2)",
    "x1 - x2",
    "x1 + x2 - 1",
    "x1^2 - x2",
    "(x1 - x2)*(x1 + 2*x2 - 1/2)",
    "x1 - 1/3*x2 - 1/7",
    "x1^2 + x2^2 - 2",
    "exp(x1) - x2 - 1/3",
    "x1*exp(x2) - 1/5",
    f"{BIG}*x1 - {BIG}*x2 + 1",
    f"x1 - 1/2 - 1/{BIG}",
)
#: isolated zeros: the umbrella's point, one on a grid corner and one off the grid
POINTS = (CARTAN_UMBRELLA, "x1^2 + x2^2", "(3*x1 - 1)^2 + (5*x2 - 1)^2")
#: no zero at all, yet natural extensions that contain 0 on large cells
DEFINITE = ("x1^2 + x2^2 + 1", "(x1 - x2)^2 + 1/100", "-(x1 + x2)^2 - 1/1000", "exp(x1)*exp(x2)", "x1^2*exp(x2) + 1/64")
#: boxes near the float range's edge, where point enclosures overflow
EDGE_BOXES = (
    [(1e300, 1.5e300), (1e300, 1.5e300)],
    [(-1.5e300, 1.5e300), (-1.5e300, 1.5e300)],
    [(-1.7e300, -1e300), (1e300, 1.7e300)],
)
EDGE_FUNCTIONS = ("x1^2 - x2^2", "x1^2 + x1*x2 - 2*x2^2", "x1^3 + x2^3", "x1*x2 - 1")
#: a box whose split lines meet on the diagonal x1 = x2
NEAR_DIAGONAL = [(0.5, 1.5), (0.5, 1.5)]
#: more boxes for the seeded inputs, -0.0 ends included
BOXES = (
    SQUARE,
    [(-0.0, 2.0), (-1.0, 0.0)],
    [(-3.0, 1.0), (-0.5, 3.5)],
    [(0.1, 0.7), (-1.3, 2.9)],
)


def _same_cells(f: EPoly, box, depth: int, rigorous: bool) -> list:
    cells = sample_zero_cells_2d(f, box, depth, rigorous)
    want = reference_sample_zero_cells_2d(f, box, depth, rigorous)
    assert cells == want, (f, box, depth, rigorous)
    return cells


def _corner_signs(f: EPoly, cell, rigorous: bool) -> list:
    """Each corner's sign by a fresh point plan, 0 where f is exactly 0, else None."""
    plan = EvalPlan(f, rigorous)
    signs = []
    for x in cell[0]:
        for y in cell[1]:
            lo, hi = plan(((x, x), (y, y)))
            if lo > 0.0 or hi < 0.0:
                signs.append(1 if lo > 0.0 else -1)
            else:
                signs.append(None if f.scaled_ints((Fraction(x), Fraction(y)))[2] else 0)
    return signs


def test_zero_lines_on_split_lines_through_corners_and_across_cells():
    for text in LINES:
        f = parse_epoly(text, ambient=2)
        for depth in (0, 1, 3, 6):
            assert _same_cells(f, SQUARE, depth, False) or depth == 0, text
        _same_cells(f, SQUARE, 4, True)
    # the axes pair's zero lines run along split lines: its cells at depth 5
    # are the two columns and two rows of the 32 x 32 grid beside the axes
    cells = _same_cells(parse_epoly(AXES_PAIR), SQUARE, 5, False)
    assert len(cells) == 4 * 32 - 4
    assert all(0.0 in (*x, *y) for x, y in cells)


def test_undecided_corners_are_not_zeros():
    # at x1 = x2 the point enclosure of 10^20 (x1 - x2) + 1 holds 0, but f is 1
    f = parse_epoly(f"{BIG}*x1 - {BIG}*x2 + 1")
    assert _corner_signs(f, ((1.0, 1.0), (1.0, 1.0)), False) == [None] * 4
    for rigorous, depth in ((False, 6), (True, 5)):
        _same_cells(f, NEAR_DIAGONAL, depth, rigorous)


def test_isolated_zeros():
    for text in POINTS:
        f = parse_epoly(text, ambient=2)
        for depth in (2, 5):
            _same_cells(f, SQUARE, depth, False)
        _same_cells(f, SQUARE, 4, True)
    # the umbrella: a line plus a point
    f = parse_epoly(CARTAN_UMBRELLA)
    assert _same_cells(f, SQUARE, 7, False)


def test_sign_definite_functions():
    for text in DEFINITE:
        f = parse_epoly(text, ambient=2)
        for depth in (1, 3, 6):
            _same_cells(f, SQUARE, depth, False)
        _same_cells(f, SQUARE, 4, True)


def test_boxes_near_the_float_range_edge():
    overflowed = 0
    for text in EDGE_FUNCTIONS:
        f = parse_epoly(text)
        plan = EvalPlan(f)
        for box in EDGE_BOXES:
            (x, _), (y, _) = box
            overflowed += plan(((x, x), (y, y))) == (-math.inf, math.inf)
            for rigorous in (False, True):
                _same_cells(f, box, 4, rigorous)
    assert overflowed >= 4


def test_seeded_epolys():
    rng = random.Random(20261020)
    for k in range(60):
        if k % 3:
            f = rand_epoly(rng, 2, max_terms=3)
        else:
            # a planted zero line with dyadic coefficients: on the grid or across it
            a, b, c = (Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in range(3))
            if not (a or b):
                a = Fraction(1)
            line = Poly.const(2, a) * Poly.var(2, "x", 1) + Poly.const(2, b) * Poly.var(2, "x", 2) + Poly.const(2, c)
            f = EPoly.from_poly(line) * rand_epoly(rng, 2, max_terms=2)
        if f.is_zero():
            continue
        box = BOXES[k % len(BOXES)]
        _same_cells(f, box, rng.randint(2, 5), False)
        if k % 4 == 0:
            _same_cells(f, box, rng.randint(2, 4), True)


def _expected_tight_cells(f: EPoly, box, depth: int, rigorous: bool) -> list:
    """The cells the TightEvaluator must get, in order: the quadtree's cells
    whose natural extension contains 0 and whose corners prove no zero."""
    plan, tight = EvalPlan(f, rigorous), TightEvaluator(f, rigorous)
    out = []
    stack = [(box, 0)]
    while stack:
        cell, level = stack.pop()
        signs = set(_corner_signs(f, cell, rigorous))
        if not (0 in signs or {1, -1} <= signs):
            lo, hi = plan(cell)
            if lo > 0.0 or hi < 0.0:
                continue
            out.append(cell)
            lo, hi = tight(cell)
            if lo > 0.0 or hi < 0.0:
                continue
        if level < depth:
            (x_lo, x_hi), (y_lo, y_hi) = cell
            xm, ym = numeric.midpoint(x_lo, x_hi), numeric.midpoint(y_lo, y_hi)
            for x in ((x_lo, xm), (xm, x_hi)):
                stack.append(((x, (y_lo, ym)), level + 1))
                stack.append(((x, (ym, y_hi)), level + 1))
    return out


def test_only_undecided_cells_reach_the_tight_evaluator():
    # The TightEvaluator gets exactly the cells whose natural extension
    # contains 0 and whose corners prove no zero, each with that natural
    # extension; an undecided corner proves nothing.
    seen = []
    tight_call = TightEvaluator.__call__

    def recording(self, bounds, nats=None):
        seen.append((bounds, dict(nats or {})))
        return tight_call(self, bounds, nats)

    cases = (
        (AXES_PAIR, SQUARE, 6, False),
        (CARTAN_UMBRELLA, SQUARE, 6, False),
        (CARTAN_UMBRELLA, SQUARE, 4, True),
        ("x1^2 + x2^2 - 2", SQUARE, 5, False),
        ("(x1 - x2)^2 + 1/100", SQUARE, 5, False),
        (f"{BIG}*x1 - {BIG}*x2 + 1", NEAR_DIAGONAL, 5, False),
    )
    for text, box, depth, rigorous in cases:
        f = parse_epoly(text, ambient=2)
        del seen[:]
        TightEvaluator.__call__ = recording
        try:
            sample_zero_cells_2d(f, box, depth, rigorous)
        finally:
            TightEvaluator.__call__ = tight_call
        want = _expected_tight_cells(f, box, depth, rigorous)
        assert want and [tuple(bounds) for bounds, _ in seen] == [tuple(cell) for cell in want], text
        for bounds, nats in seen:
            assert list(nats) == [()] and nats[()] == EvalPlan(f, rigorous)(bounds), (text, bounds)


def _plan_calls(run):
    """The result of run() and the (plan id, function, bounds) of each plan call it made."""
    calls = []
    plan_call = EvalPlan.__call__

    def recording(self, bounds):
        calls.append((id(self), self.f, tuple(bounds)))
        return plan_call(self, bounds)

    EvalPlan.__call__ = recording
    try:
        return run(), calls
    finally:
        EvalPlan.__call__ = plan_call


def test_tight_evaluator_evaluates_each_path_once_per_box():
    rng = random.Random(7)
    for _ in range(40):
        f = rand_epoly(rng, 2, max_terms=3)
        if f.is_zero():
            continue
        tight, ref = TightEvaluator(f), ReferenceTightEvaluator(f)
        for _ in range(4):  # one evaluator for several boxes: nothing carries over
            x, y = sorted(rng.uniform(-2, 2) for _ in range(2)), sorted(rng.uniform(-2, 2) for _ in range(2))
            bounds = [tuple(x), tuple(y)]
            got, calls = _plan_calls(lambda: tight(bounds))
            keys = [(plan, b) for plan, _, b in calls]
            assert len(keys) == len(set(keys)), (f, bounds)
            want = ref(bounds)
            assert struct.pack("<2d", *got) == struct.pack("<2d", want.lo, want.hi), (f, bounds)
            # a natural extension handed in is used, not computed again
            nat = tight.plan(())(bounds)
            again, calls = _plan_calls(lambda: tight(bounds, {(): nat}))
            assert again == got and len(calls) == len(keys) - 1, (f, bounds)
            assert (id(tight.plan(())), tuple(bounds)) not in [(plan, b) for plan, _, b in calls]


def test_isolator_box_test_reuses_the_derivative():
    # a cell's derivative enclosure serves its monotonicity and box tests
    for text in ("2*x1 + 1 - exp(x1)", "(x1^2 - 2)*exp(x1) - x1", "x1^3 - 1/4*x1"):
        f = parse_epoly(text)
        df = f.derivative(1)
        certs, calls = _plan_calls(lambda: isolate_roots_1d(f, (-4.0, 4.0), 1e-6))
        boxes = [b for _, g, b in calls if g == df]
        assert certs and boxes and len(boxes) == len(set(boxes)), text


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


def test_scan_values_are_the_float_evaluator_values():
    rng = random.Random(11)
    chunk = numeric._SCAN_CHUNK
    cases = [(parse_epoly("2*x1 + 1 - exp(x1)"), -5.0, 1e-4, 100001), (parse_epoly("x1"), -1.0, 0.25, 9)]
    for k in range(24):
        f = rand_epoly(rng, 1, max_terms=4, max_exp=3)
        if k % 3 == 0:
            f = f + EPoly.from_poly(rand_poly(rng, 1, max_exp=4))
        points = (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 37, 3000)[k % 6]
        cases.append((f, rng.uniform(-3, 0), rng.choice((1e-3, 7e-4, 1 / 64)), points))
    for f, lo, step, points in cases:
        if f.is_zero():
            continue
        value = f.float_evaluator()
        got = list(numeric._grid_values(f, lo, step, points))
        want = [value([lo + k * step]) for k in range(points)]
        assert len(got) == points and [_bits(v) for v in got] == [_bits(v) for v in want], (f, lo, step, points)


def test_scan_counts_match_the_reference():
    cases = [
        ("2*x1 + 1 - exp(x1)", (-5.0, 5.0), 1e-4),  # 100,001 points: not a whole number of chunks
        ("x1", (-1.0, 1.0), 0.25),  # an exact zero on the grid
        ("(4*x1^2 - 1)*exp(x1)", (-1.0, 1.0), 1 / 1024),  # exact zeros at +-1/2 with exp
        ("x1^3 - 1/4*x1 + 1/1000", (-2.0, 2.0), 1e-3),
        ("exp(x1) - 1", (-0.5, 0.75), 1 / 4096),
    ]
    for text, domain, step in cases:
        f = parse_epoly(text)
        assert brute_force_sign_scan(f, domain, step) == reference_brute_force_sign_scan(f, domain, step), text
    assert brute_force_sign_scan(parse_epoly("x1"), (-1.0, 1.0), 0.25) == 1
    assert brute_force_sign_scan(parse_epoly("(4*x1^2 - 1)*exp(x1)"), (-1.0, 1.0), 1 / 1024) == 2


if __name__ == "__main__":
    run_standalone(globals())
