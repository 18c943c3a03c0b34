"""Certified numerics: interval evaluation, root isolation, cells, transversality."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from expalg import numeric
from expalg.epoly import EPoly
from expalg.errors import DimensionError, HypothesisViolation
from expalg.intervals import Interval, float_down, float_up
from expalg.numeric import (
    EvalPlan,
    RootCert,
    TightEvaluator,
    SIGN_GRID,
    certified_sign_change,
    check_transversality,
    default_root_domain,
    interval_eval,
    isolate_roots_1d,
    sample_zero_cells_2d,
    sign_at_rational,
)
from expalg.parsing import parse_epoly, parse_poly
from expalg.poly import Poly

from util import (
    ReferenceTightEvaluator,
    mono,
    rand_epoly,
    rand_fraction,
    rand_poly,
    reference_brute_force_sign_scan,
    reference_enclose_rational,
    reference_interval_eval,
)


def test_interval_eval_worked_examples():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    iv = interval_eval(f, [(0.0, 0.0)], rigorous=True)
    assert iv.contains(0.0) and iv.width <= 1e-15

    iv = interval_eval(parse_epoly("exp(x1)"), [(0.0, 1.0)])
    assert iv.lo <= 1.0 and iv.hi >= 2.7182818

    f13 = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    iv = interval_eval(f13, [(0.9, 1.1), (0.9, 1.1)])
    assert iv.excludes_zero()
    center = f13.eval_float([1.0, 1.0])
    assert iv.contains(center)
    assert abs(center - (2 * math.e - 2)) < 1e-12


def test_interval_eval_rejects_bad_bounds():
    f = parse_epoly("x1*exp(x2) - x2", 2)
    with pytest.raises(DimensionError):
        interval_eval(f, [(0.0, 1.0)])
    with pytest.raises(DimensionError):
        interval_eval(f, [(0.0, 1.0)] * 3)
    for side in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        for rigorous in (False, True):
            with pytest.raises(ValueError, match="invalid interval"):
                interval_eval(f, [(0.0, 1.0), side], rigorous)
    # infinite and point sides are intervals
    assert interval_eval(f, [(0.0, 1.0), (-math.inf, 0.0)]).hi == math.inf
    assert interval_eval(f, [(0, 0), (1, 1)], rigorous=True) == Interval(-1.0, -1.0)


def test_interval_eval_encloses_point_values():
    rng = random.Random(51)
    for trial in range(1000):
        n = rng.choice([1, 2])
        f = EPoly.from_poly(rand_poly(rng, n))
        x = [rng.uniform(-2.0, 2.0) for _ in range(n)]
        value = f.eval_float(x)
        for rigorous in (False, True) if trial < 200 else (False,):
            iv = interval_eval(f, [(v, v) for v in x], rigorous)
            pad = 1e-9 * max(1.0, abs(value))
            assert iv.lo - pad <= value <= iv.hi + pad


def test_interval_eval_overflow_widens_to_infinity():
    f = parse_epoly("exp(x1)")
    iv = interval_eval(f, [(0.0, 1000.0)])
    assert iv.lo <= 1.0 and iv.hi == math.inf


def test_sign_at_rational():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    assert sign_at_rational(f, [Fraction(0)]) == 0
    assert sign_at_rational(f, [Fraction(1)]) > 0
    assert sign_at_rational(f, [Fraction(2)]) < 0
    assert sign_at_rational(f, [Fraction(5, 4)]) > 0
    assert sign_at_rational(f, [Fraction(63, 50)]) < 0


def test_isolate_roots_two_point_example():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    certs, leftovers = isolate_roots_1d(f, (-5.0, 5.0), 1e-9)
    assert len(certs) == 2 and not leftovers
    zero, star = certs
    assert zero.enclosure.lo == zero.enclosure.hi == 0.0
    assert zero.kind == "NewtonContraction" and zero.residual_bound == 0.0
    assert 1.25 <= star.enclosure.lo <= star.enclosure.hi <= 1.26
    assert star.enclosure.width <= 1e-9
    assert reference_brute_force_sign_scan(f, (-5.0, 5.0)) == 2


def test_isolate_roots_simple_cases():
    certs, _ = isolate_roots_1d(parse_epoly("exp(x1) - 1"), (-2.0, 2.0), 1e-9)
    assert len(certs) == 1 and certs[0].enclosure.contains(0.0)
    certs, leftovers = isolate_roots_1d(parse_epoly("exp(x1) + 1"), (-10.0, 10.0), 1e-9)
    assert certs == [] and leftovers == []


def test_isolate_roots_reports_tangential_leftovers():
    # (e^x - 1)^2 touches zero at the origin with even multiplicity.
    f = parse_epoly("exp(x1)^2 - 2*exp(x1) + 1")
    certs, leftovers = isolate_roots_1d(f, (-1.0, 1.0), 1e-6)
    assert certs == []
    assert leftovers and any(r.enclosure.contains(0.0) for r in leftovers)
    assert all(r.kind == "UncertifiedTangential" for r in leftovers)


def test_isolate_roots_bisection_lands_on_a_rational_root():
    # 1/16 is the midpoint of the monotone cell [0, 1/8]: refining that
    # bracket lands on it, and the exact sign 0 there makes it a point root.
    certs, leftovers = isolate_roots_1d(parse_epoly("16*x1 - 1"), (-8.0, 8.0), 1e-9)
    assert certs == [RootCert(Interval(0.0625, 0.0625), "NewtonContraction", 0.0)]
    assert leftovers == []


def test_isolate_roots_double_roots_stay_suspect_leftovers():
    # Around each double root +-sqrt(2) no cell is monotone and no sign changes.
    certs, leftovers = isolate_roots_1d(parse_epoly("(x1^2 - 2)^2"), (-8.0, 8.0), 1e-9)
    assert certs == []
    lo, hi, residual = 1.4142135621514171, 1.4142135626170784, 5.26836263503583e-09
    assert leftovers == [
        RootCert(Interval(-hi, -lo), "UncertifiedTangential", residual),
        RootCert(Interval(lo, hi), "UncertifiedTangential", residual),
    ]


def test_isolate_roots_deepest_suspect_with_a_sign_change_is_refined():
    # On a huge domain the depth limit stops bisection while cells are still
    # wider than the certificate width; the sign change there is refined.
    certs, leftovers = isolate_roots_1d(parse_epoly("x1 - 1/3"), (-1e300, 1e300), 1e-9)
    enc = Interval(0.3333333326635275, 0.33333333335886317)
    assert certs == [RootCert(enc, "SignChange", 6.698059884513443e-10)]
    assert leftovers == []


def test_isolate_roots_rejects_bad_inputs():
    f = parse_epoly("x1 - 1/3")
    with pytest.raises(DimensionError, match="1-variable"):
        isolate_roots_1d(parse_epoly("x1 - x2"), (-1.0, 1.0), 1e-9)
    for domain in ((-math.inf, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValueError, match="domain endpoints must be finite"):
            isolate_roots_1d(f, domain, 1e-9)
    for domain in ((1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="nonempty interval"):
            isolate_roots_1d(f, domain, 1e-9)
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="root tolerance"):
            isolate_roots_1d(f, (-1.0, 1.0), tol)


def test_isolate_roots_rejects_zero_function():
    zero = EPoly.zero(1)
    with pytest.raises(HypothesisViolation):
        isolate_roots_1d(zero, (-1.0, 1.0), 1e-9)


def test_root_completeness_against_scan():
    cases = [
        ("2*x1 + 1 - exp(x1)", (-5.0, 5.0)),
        ("exp(x1) - 1", (-2.0, 2.0)),
        ("x1^2 - 1", (-3.0, 3.0)),
        ("(x1 - 1)*exp(x1) + x1", (-4.0, 4.0)),
    ]
    for text, domain in cases:
        f = parse_epoly(text)
        certs, leftovers = isolate_roots_1d(f, domain, 1e-9)
        assert not leftovers, text
        assert reference_brute_force_sign_scan(f, domain) == len(certs), text


def test_root_count_matches_scan_on_random_inputs():
    """isolate_roots_1d counts what the sign scan counts, where the scan can.

    The scan resolves every root when none is tangential (no leftover) and
    the certified roots are more than a few steps apart and from the ends.
    """
    rng = random.Random(61)
    domain, step = (-3.0, 3.0), 1e-3
    checked, roots = 0, 0
    for _ in range(60):
        f = rand_epoly(rng, 1)
        if f.is_zero():
            continue
        certs, leftovers = isolate_roots_1d(f, domain, 1e-9)
        marks = [domain[0]] + [c.enclosure.mid for c in certs] + [domain[1]]
        if leftovers or min(b - a for a, b in zip(marks, marks[1:])) <= 4 * step:
            continue
        assert reference_brute_force_sign_scan(f, domain, step) == len(certs), f
        checked += 1
        roots += len(certs)
    assert checked >= 30 and roots >= 20, (checked, roots)


def test_default_domain_covers_coefficients():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    lo, hi = default_root_domain(f)
    assert lo <= -8 and hi >= 8


def test_subdivision_monotonicity():
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    shallow = sample_zero_cells_2d(f, box, 4)
    deep = sample_zero_cells_2d(f, box, 5)
    for cell in deep:
        assert any(all(p_lo <= lo and hi <= p_hi for (p_lo, p_hi), (lo, hi) in zip(parent, cell)) for parent in shallow)


def test_sample_cells_rejects_bad_inputs():
    f = parse_epoly("x1*exp(x2) - x2", 2)
    box = [(0.0, 1.0), (0.0, 1.0)]
    with pytest.raises(DimensionError, match="2-variable"):
        sample_zero_cells_2d(parse_epoly("x1 - 1"), box, 3)
    for bounds in (box[:1], box * 2):
        with pytest.raises(DimensionError, match="box must be 2-dimensional"):
            sample_zero_cells_2d(f, bounds, 3)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        sample_zero_cells_2d(f, box, -1)
    for side in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            sample_zero_cells_2d(f, [(0.0, 1.0), side], 3)
    for side in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="nonempty intervals"):
            sample_zero_cells_2d(f, [side, (0.0, 1.0)], 3)


def test_sample_cells_positive_function_is_empty():
    f = parse_epoly("exp(x1)*exp(x2)", ambient=2)
    assert sample_zero_cells_2d(f, [(0.0, 1.0), (0.0, 1.0)], 3) == []


def test_sample_cells_cover_known_zero_points():
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    cells = sample_zero_cells_2d(f, [(-2.0, 2.0), (-2.0, 2.0)], 6)
    # the axes are inside the union of retained cells
    for t in [-1.5, -0.5, 0.25, 1.75]:
        assert any(x_lo <= t <= x_hi and y_lo <= 0.0 <= y_hi for (x_lo, x_hi), (y_lo, y_hi) in cells)
        assert any(x_lo <= 0.0 <= x_hi and y_lo <= t <= y_hi for (x_lo, x_hi), (y_lo, y_hi) in cells)


def test_transversality_examples_and_scaling_invariance():
    p = parse_poly("2*x1 - u1 + 1")
    f = EPoly.from_poly(p)
    certs, _ = isolate_roots_1d(f, (-5.0, 5.0), 1e-9)
    star = next(c for c in certs if not c.enclosure.contains(0.0))
    rep = check_transversality(p, star, (), 1e-6)
    assert rep.verdict == "Transverse"
    assert rep.jacobian_rank_lower_bound == 2
    # margin is |2 - e^(x*)| = |1 - 2 x*|
    expected = abs(1 - 2 * star.enclosure.mid)
    assert abs(rep.tangency_margin - expected) < 1e-9
    scaled = check_transversality(p.scale(Fraction(7, 2)), star, (), 1e-6)
    assert scaled.verdict == "Transverse"

    zero = next(c for c in certs if c.enclosure.contains(0.0))
    with pytest.raises(HypothesisViolation):
        check_transversality(p, zero, (), 1e-6)


def test_transversality_rejects_bad_inputs():
    p = parse_poly("2*x1 - u1 + 1")
    root = RootCert(Interval(1.25, 1.26), "SignChange", 0.0)
    for tol in (-1e-6, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            check_transversality(p, root, (), tol)
    with pytest.raises(DimensionError, match="expected 0 extra coordinates"):
        check_transversality(p, root, (Fraction(1),), 1e-6)
    with pytest.raises(DimensionError, match="expected 1 extra coordinates"):
        check_transversality(parse_poly("2*x1 - u1 + x2", 2), root, (), 1e-6)


def test_tight_evaluator_rejects_bad_boxes():
    tight = TightEvaluator(parse_epoly("x1*exp(x2) - x2", 2))
    for bounds in ([(0.0, 1.0)], [(0.0, 1.0)] * 3):
        with pytest.raises(DimensionError, match="box dimension"):
            tight(bounds)
    # the midpoint of (-inf, inf) is NaN, and no mean-value form is taken there
    with pytest.raises(ValueError, match="midpoint is not a number"):
        TightEvaluator(parse_epoly("x1"))([(-math.inf, math.inf)])


def test_transversality_precondition_on_synthetic_root():
    # u1 - x1 - 1 has its graph intersection exactly at x1 = 0.
    p = parse_poly("u1 - x1 - 1")
    fake = RootCert(Interval(-1e-12, 1e-12), "SignChange", 0.0)
    with pytest.raises(HypothesisViolation):
        check_transversality(p, fake, (), 1e-6)


def _outcome(fn, *args):
    """(lo, hi) as exact float bits, or the type of the exception raised."""
    try:
        iv = fn(*args)
        if isinstance(iv, tuple):  # a float pair, validated as interval_eval's are
            iv = Interval(*iv)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return (math.copysign(1.0, iv.lo), iv.lo, math.copysign(1.0, iv.hi), iv.hi)


def _random_boxes(rng, n):
    """Zero-width, 1e-9-wide, moderate, wide and overflowing boxes.

    The last three have endpoints at exactly 0 and at infinity, where
    products 0 * inf and sums inf - inf occur.
    """
    boxes = []
    for width in (0.0, 1e-9, 0.5, 40.0, 1e160):
        for _ in range(3):
            lo = [rng.uniform(-3.0, 3.0) * max(1.0, width) for _ in range(n)]
            boxes.append([(v, v + width) for v in lo])
    for bounds in ((0.0, 0.0), (0.0, math.inf), (-math.inf, 0.0)):
        boxes.append([bounds] * n)
    return boxes


def test_compiled_plans_match_reference_bit_for_bit():
    rng = random.Random(2024)
    for trial in range(120):
        n = rng.choice([1, 2, 2, 3])
        f = rand_epoly(rng, n, max_terms=rng.choice([1, 3, 5]), max_exp=rng.choice([1, 3]))
        tight = TightEvaluator(f)
        ref_tight = ReferenceTightEvaluator(f)
        for box in _random_boxes(rng, n):
            assert _outcome(interval_eval, f, box) == _outcome(reference_interval_eval, f, box)
            assert _outcome(tight, box) == _outcome(ref_tight, box)
            if trial % 10 == 0 and box[0][1] - box[0][0] <= 0.5:
                args = (f, box, True)
                assert _outcome(interval_eval, *args) == _outcome(reference_interval_eval, *args)
    # exp overflow widens to infinity identically, in both evaluators
    f = parse_epoly("exp(x1)")
    box = [(0.0, 1000.0)]
    assert _outcome(interval_eval, f, box) == _outcome(reference_interval_eval, f, box)
    assert _outcome(TightEvaluator(f), box) == _outcome(ReferenceTightEvaluator(f), box)


def test_tight_evaluator_midpoint_near_the_top_of_the_float_range():
    # 1e308 + 1.7e308 overflows, so a midpoint taken as 0.5 * (lo + hi) is
    # inf and the mean-value form gives -inf; the overflow-safe midpoint
    # keeps it finite.  The literal stands for 13*10^307, beyond the
    # parser's exponent cap.
    f = parse_epoly(f"x1 - {13 * 10**307}*x2")
    bounds = [(1e308, 1.7e308), (0.5, 1.5)]
    lo, hi = TightEvaluator(f)(bounds)
    assert -9.6e307 < lo < -9.4e307 and 1.04e308 < hi < 1.06e308
    want = _outcome(ReferenceTightEvaluator(f), bounds)
    assert _outcome(TightEvaluator(f), bounds) == want


def test_rigorous_tight_evaluator_matches_reference():
    rng = random.Random(7)
    for _ in range(6):
        f = rand_epoly(rng, 2, max_terms=3)
        tight = TightEvaluator(f, rigorous=True)
        ref = ReferenceTightEvaluator(f, rigorous=True)
        for width in (0.0, 1e-9, 0.25):
            lows = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            box = [(v, v + width) for v in lows]
            assert _outcome(tight, box) == _outcome(ref, box)


def _reference_minors(p):
    """The 2x2 minors of the rows grad p and grad(u1 - e^{x1}), by column pairs.

    Each minor is formed from p's Poly partials in x1..xn, u1 and read as an
    EPoly (u1 = e^{x1}); the identically zero ones are dropped.
    """
    n = p.n
    u1 = Poly.var(n, "u", 1)
    grad_p = [p.derivative("x", i) for i in range(1, n + 1)] + [p.derivative("u", 1)]
    grad_g = [-u1] + [Poly.zero(n)] * (n - 1) + [Poly.const(n, 1)]
    minors = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            minor = EPoly.from_poly(grad_p[i] * grad_g[j] - grad_p[j] * grad_g[i])
            if not minor.is_zero():
                minors.append(minor)
    return minors


def _reference_transversal(p, enc: Interval, coords, tol: float):
    """(margin, verdict, decisive minor) of ``check_transversality``, on reference intervals.

    The decisive minor is the first largest one at the midpoint, in the
    order the column pairs are scanned; it is enclosed over the root enclosure and
    the outward-rounded coordinates only when the margin exceeds ``tol``, and
    is reported only then.  A midpoint value that overflows or is not finite
    leaves no margin: (None, "Undetermined", None).
    """
    mid = [enc.mid] + [float(v) for v in coords]
    margin, decisive = 0.0, None
    for minor in _reference_minors(p):
        try:
            value = abs(minor.eval_float(mid))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            return None, "Undetermined", None
        if value > margin:
            margin, decisive = value, minor
    if not margin > tol:
        return margin, "Undetermined", None
    sides = [reference_enclose_rational(v) for v in coords]
    box = [(enc.lo, enc.hi)] + [(iv.lo, iv.hi) for iv in sides]
    verdict = "Transverse" if reference_interval_eval(decisive, box).excludes_zero() else "Undetermined"
    return margin, verdict, decisive


def _transversal(monkeypatch, p, enc: Interval, coords, tol: float):
    """((margin, verdict, enclosed minor), bounds) of ``check_transversality``.

    The enclosed minor is the EPoly of the one plan the check evaluated, and
    ``bounds`` the box it was evaluated over; both are None without a plan.
    """
    calls = []

    def plan(f, rigorous=False):
        inner = EvalPlan(f, rigorous)

        def run(bounds):
            calls.append((f, list(bounds)))
            return inner(bounds)

        return run

    with monkeypatch.context() as m:
        m.setattr(numeric, "EvalPlan", plan)
        rep = check_transversality(p, RootCert(enc, "SignChange", 0.0), coords, tol)
    assert len(calls) <= 1
    minor, bounds = calls[0] if calls else (None, None)
    return (rep.tangency_margin, rep.verdict, minor), bounds


def _agree(got, ref) -> bool:
    """Equal verdicts and enclosed minors, and margins equal to 1e-15 relative."""
    (margin, verdict, minor), (ref_margin, ref_verdict, ref_minor) = got, ref
    if (verdict, minor) != (ref_verdict, ref_minor) or (margin is None) != (ref_margin is None):
        return False
    return margin is None or math.isclose(margin, ref_margin, rel_tol=1e-15, abs_tol=0.0)


def _rand_u1_poly(rng, n):
    """Random p in x1..xn and u1 alone, as the single-exponential check needs."""
    terms = []
    for _ in range(rng.randint(2, 5)):
        x = tuple(rng.randint(0, 2) for _ in range(n))
        terms.append((mono(x, (rng.randint(0, 2),) + (0,) * (n - 1)), rand_fraction(rng)))
    return Poly(n, terms)


def test_transversality_unchanged_on_corpus_inputs(monkeypatch):
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    certs, _ = isolate_roots_1d(f, (-5.0, 5.0), 1e-9)
    star = next(c for c in certs if not c.enclosure.contains(0.0))
    cases = [
        ("2*x1 - u1 + 1", None, (), 1.5128624176832495, "Transverse"),
        ("2*x1 - u1 + 1", 2, (Fraction(0),), 1.5128624176832495, "Transverse"),
        # the umbrella gradient vanishes at the exact lifted point, so this
        # margin is cancellation noise in the float value of df/dx1
        (
            "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3",
            None,
            (Fraction(0),),
            2.1165078578633256e-09,
            "Undetermined",
        ),
    ]
    for text, ambient, coords, margin, verdict in cases:
        p = parse_poly(text, ambient)
        rep = check_transversality(p, star, coords, 1e-6)
        assert (rep.tangency_margin, rep.verdict) == (margin, verdict), text
        got, _ = _transversal(monkeypatch, p, star.enclosure, coords, 1e-6)
        assert _agree(got, _reference_transversal(p, star.enclosure, coords, 1e-6)), text

    # Seeded inputs: the verdict is margin > tol and the reference decisive
    # minor excludes 0, on narrow, wide and near-overflow enclosures; the
    # check encloses the reference's decisive minor.
    rng = random.Random(808)
    seen = set()
    for trial in range(240):
        n = 1 + trial % 2
        p = _rand_u1_poly(rng, n)
        coords = tuple(rand_fraction(rng) for _ in range(n - 1))
        sign = rng.choice([1.0, -1.0])
        kind = trial // 2 % 3
        if kind == 0:  # narrow: one ulp, or 1e-9 wide
            lo = sign * rng.uniform(0.1, 3.0)
            hi = rng.choice([math.nextafter(lo, math.inf), lo + 1e-9])
        elif kind == 1:  # wide
            lo = sign * rng.uniform(0.1, 3.0)
            hi = lo + rng.choice([0.5, 2.0])
            if lo < 0.0 < hi:
                hi = -1e-3
        else:  # near overflow of exp: e^hi may round to infinity
            lo = rng.uniform(700.0, 709.5)
            hi = lo + rng.choice([1e-9, 0.5, 2.0])
        enc = Interval(lo, hi)
        tol = rng.choice([1e-6, 1e-300, 1e3])
        got, _ = _transversal(monkeypatch, p, enc, coords, tol)
        assert _agree(got, _reference_transversal(p, enc, coords, tol)), (p, enc)
        margin, verdict, _ = got
        seen.add((kind, verdict, None if margin is None else margin > tol))
    # every enclosure kind reaches both verdicts; on wide enclosures the
    # minor alone refutes some margins above tol; near overflow a minor with
    # e^{2 x1} in it overflows at the midpoint on some inputs, which leaves
    # no margin and no verdict, and no finite minor there, A_0 + A_1 e^{x1}
    # with small coefficients, changes sign across the enclosure
    for kind in range(3):
        assert {(kind, "Transverse", True), (kind, "Undetermined", False)} <= seen, seen
    assert {(1, "Undetermined", True), (2, "Undetermined", None)} <= seen, seen


def test_transversality_minors_follow_the_chain_rule():
    # along the graph u1 = e^{x1}, f = p(x, e^{x1}) has df/dx1 = p_x1 + u1 p_u1
    # and df/dxj = p_xj: the (x1, u1) and (xj, u1) minors of the Jacobian
    rng = random.Random(417)
    for trial in range(150):
        n = 1 + trial % 3
        p = _rand_u1_poly(rng, n)
        f = EPoly.from_poly(p)
        u1 = Poly.var(n, "u", 1)
        assert f.derivative(1) == EPoly.from_poly(p.derivative("x", 1) + u1 * p.derivative("u", 1)), p
        for j in range(2, n + 1):
            assert f.derivative(j) == EPoly.from_poly(p.derivative("x", j)), (p, j)


def test_transversality_encloses_rational_coordinates_outward(monkeypatch):
    # x2 = 1/3 is no float: the minor's box holds the tightest float pair
    # around it, not the point float(1/3)
    p = parse_poly("x1*x2 - u1 + 3", 2)
    third = Fraction(1, 3)
    enc = Interval(1.5, 1.5 + 1e-9)
    got, bounds = _transversal(monkeypatch, p, enc, (third,), 1e-6)
    assert bounds == [(enc.lo, enc.hi), (float_down(third), float_up(third))]
    assert float_down(third) < third < float_up(third)
    assert _agree(got, _reference_transversal(p, enc, (third,), 1e-6))
    assert got[1] == "Transverse"


def test_box_enclosures_reach_the_exact_sign_at_rational_points():
    """Both backends of a plan agree with sign_at_rational inside dyadic boxes.

    f(q) lies in every sound enclosure of a box holding q, so a positive
    exact sign needs hi > 0, a negative one lo < 0, and a zero one both.
    """
    rng = random.Random(51)
    seen = {-1: 0, 0: 0, 1: 0}
    for case in range(60):
        n = 1 + case % 2
        f = rand_epoly(rng, n)
        lows = [Fraction(rng.randint(-16, 16), 8) for _ in range(n)]
        widths = [Fraction(1, 1 << rng.randint(0, 6)) for _ in range(n)]
        if case % 3 == 0:
            # a factor (x1 - c) with dyadic c in the box: f vanishes on x1 = c
            c = lows[0] + widths[0] * Fraction(rng.randint(0, 4), 4)
            f = f * parse_epoly(f"{c.denominator}*x1 + ({-c.numerator})", n)
        bounds = [(float(lo), float(lo + w)) for lo, w in zip(lows, widths)]
        enclosures = [EvalPlan(f)(bounds), EvalPlan(f, rigorous=True)(bounds)]
        for _ in range(3):
            pt = [lo + w * Fraction(rng.randint(0, 7), 7) for lo, w in zip(lows, widths)]
            if case % 3 == 0 and rng.random() < 0.5:
                pt[0] = c
            sign = sign_at_rational(f, pt)
            seen[sign] += 1
            for lo, hi in enclosures:
                assert (sign <= 0 or hi > 0) and (sign >= 0 or lo < 0)
                assert sign != 0 or lo <= 0.0 <= hi
    assert min(seen.values()) >= 10, seen


# Certified sign changes: a proof that dim Z(f) = n-1 in two variables.


def _reference_sign_change(f):
    """The first grid points, in scan order, whose float and exact signs are
    both -1 and both +1; every grid point is evaluated."""
    first = {}
    for pt in product(SIGN_GRID, repeat=f.n):
        exact = tuple(q for q, _ in pt)
        v = f.eval_float([float(q) for q in exact])
        s = sign_at_rational(f, exact)
        if s != 0 and (v > 0) - (v < 0) == s:
            first.setdefault(s, exact)
    return (first[-1], first[1]) if len(first) == 2 else None


SIGN_CHANGING = [
    "x1*u2 + x2*u1 - x1 - x2",
    "x1^2 + x2^2 - u1 - 1",
    "x1*u2 - x2*u1 + 3",
    "(x1 - x2)*3 + (u1 - u2)*(5*u2 + 1)",
]
SIGN_DEFINITE = [
    "(x1 - u2)^2 + (x2 - 1)^2",
    "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2",
    "x1^2 + x2^2 + 1",
]


def test_sign_change_points_have_opposite_exact_signs():
    grid = {q for q, _ in SIGN_GRID}
    assert all(abs(q) <= 8 for q in grid)
    rng = random.Random(71)
    inputs = [EPoly.from_poly(parse_poly(t, 2)) for t in SIGN_CHANGING + SIGN_DEFINITE]
    inputs += [rand_epoly(rng, 2) for _ in range(30)]
    found = 0
    for f in inputs:
        if f.is_zero():
            continue
        pair = certified_sign_change(f)
        assert pair == _reference_sign_change(f), f
        if pair is not None:
            a, b = pair
            assert sign_at_rational(f, a) == -1 and sign_at_rational(f, b) == 1
            assert set(a) <= grid and set(b) <= grid
            found += 1
    assert found >= 20


def test_sign_change_drops_a_float_nonzero_exact_zero():
    # f vanishes on x1 = x2; at the first grid point the float value is a
    # rounding residue, so that point is the first float-negative candidate.
    f = EPoly.from_poly(parse_poly("(x1 - x2)*3 + (u1 - u2)*(5*u2 + 1)", 2))
    third = Fraction(1, 3)
    assert f.eval_float([1 / 3, 1 / 3]) < 0.0
    assert sign_at_rational(f, [third, third]) == 0
    a, b = certified_sign_change(f)
    assert a != (third, third)
    assert sign_at_rational(f, a) == -1 and sign_at_rational(f, b) == 1


def test_sign_change_skips_overflowing_points():
    # (x1 - 1)(1 + e^(100 x2)): the exponential overflows a float at x2 = 22/3.
    a1 = parse_poly("x1 - 1", 2)
    f = EPoly(2, {(Fraction(0), Fraction(0)): a1, (Fraction(0), Fraction(100)): a1})
    with pytest.raises(OverflowError):
        f.eval_float([1 / 3, 22 / 3])
    a, b = certified_sign_change(f)
    assert a[0] < 1 < b[0]


def test_sign_definite_inputs_have_no_sign_change():
    for text in SIGN_DEFINITE:
        assert certified_sign_change(EPoly.from_poly(parse_poly(text, 2))) is None, text
