"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single PASS line when it completes; run with ``pytest -s``
to see the list.  Numeric tolerances and runtime budgets live directly in the
assertions below.
"""

import json
import math
import random
import time
from fractions import Fraction

from expalg import cli
from expalg.classify import classify_codim1, classify_single_exp
from expalg.epoly import EPoly
from expalg.hyperplanes import candidate_hyperplanes
from expalg.numeric import (
    brute_force_sign_scan,
    check_transversality,
    isolate_roots_1d,
    sample_zero_cells_2d,
)
from expalg.parsing import format_poly, parse_epoly, parse_poly
from expalg.poly import Poly

from util import mono, rand_poly

AXES_PAIR = "x1*u2 + x2*u1 - x1 - x2"
TWO_POINT_LINE_F = "2*x1 + 1 - exp(x1)"
UMBRELLA = "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
SHIFTED_CIRCLE = "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2"


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_axes_decomposition():
    start = time.perf_counter()
    rep = classify_codim1(parse_poly(AXES_PAIR))
    elapsed = time.perf_counter() - start
    assert rep.verdict == "HyperplaneComponents"
    # exactly the two axes, certified symbolically (exact, no tolerance)
    assert [c.hyperplane.normal for c in rep.hyperplanes] == [(0, 1), (1, 0)]
    assert [c.hyperplane.normal for c in rep.rejected] == [(1, -1)]
    f = EPoly.from_poly(parse_poly(AXES_PAIR))
    for cert in rep.hyperplanes:
        assert f.restrict(cert.hyperplane).is_zero()
    assert not f.restrict(rep.rejected[0].hyperplane).is_zero()
    assert elapsed < 1.0, f"classification took {elapsed:.3f}s"
    _report("1 axes decomposition")


def test_criterion_2_two_point_root_count():
    f = parse_epoly(TWO_POINT_LINE_F)
    start = time.perf_counter()
    certs, leftovers = isolate_roots_1d(f, (-5.0, 5.0), 1e-9)
    elapsed = time.perf_counter() - start
    assert len(certs) == 2 and not leftovers
    a, b = certs
    assert a.enclosure.hi < b.enclosure.lo  # disjoint
    assert a.enclosure.lo == 0.0 == a.enclosure.hi  # contains 0 exactly
    assert 1.25 <= b.enclosure.lo and b.enclosure.hi <= 1.26
    assert b.enclosure.width <= 1e-9
    assert brute_force_sign_scan(f, (-5.0, 5.0), 1e-4) == 2
    assert elapsed < 1.0, f"root isolation took {elapsed:.3f}s"
    _report("2 two-point root count")


def test_criterion_3_umbrella_line_and_point():
    p = parse_poly(UMBRELLA)
    rep = classify_codim1(p)
    assert any(c.hyperplane.normal == (1, 0) for c in rep.hyperplanes)
    f = EPoly.from_poly(p)
    assert f.restrict(rep.hyperplanes[0].hyperplane).is_zero()  # exact certificate

    star_certs, _ = isolate_roots_1d(parse_epoly(TWO_POINT_LINE_F), (-5.0, 5.0), 1e-9)
    star = next(c.enclosure for c in star_certs if not c.enclosure.contains(0.0))

    cells = sample_zero_cells_2d(f, [(-2.0, 2.0), (-2.0, 2.0)], 8)
    width = 4.0 / 2**8
    for cell in cells:
        (x_lo, x_hi), (y_lo, y_hi) = cell
        d_line = max(0.0, x_lo, -x_hi)
        px = max(0.0, x_lo - star.hi, star.lo - x_hi)
        py = max(0.0, y_lo, -y_hi)
        distance = min(d_line, math.hypot(px, py))
        assert distance <= 2 * width + 1e-12, (cell, distance)
    _report("3 umbrella line plus point")


def test_criterion_4_shifted_circle_slice():
    rep = classify_single_exp(parse_poly(SHIFTED_CIRCLE))
    comps = [sc for sc in rep.slice_components if sc.real_points]
    labels = sorted((format_poly(sc.factor), sc.multiplicity) for sc in comps)
    # exact factorization of (x2^2 - 1)^2: two components, no tolerance
    assert labels == [("x2 + 1", 2), ("x2 - 1", 2)]
    assert len(comps) == 2
    _report("4 shifted-circle slice components")


def test_criterion_5_transversality():
    line = parse_poly("2*x1 - u1 + 1")
    certs, _ = isolate_roots_1d(parse_epoly(TWO_POINT_LINE_F), (-5.0, 5.0), 1e-9)
    star = next(c for c in certs if not c.enclosure.contains(0.0))
    zero = next(c for c in certs if c.enclosure.contains(0.0))

    rep = check_transversality(line, star, (), 1e-6)
    assert rep.verdict == "Transverse" and rep.tangency_margin > 1e-6

    lifted = parse_poly("2*x1 - u1 + 1", ambient=2)
    rep = check_transversality(lifted, star, (Fraction(0),), 1e-6)
    assert rep.verdict == "Transverse" and rep.tangency_margin > 1e-6

    # hypothesis-violation exit code through the CLI
    code = cli.main(["transversal", "2*x1 - u1 + 1", "--root-index", "0"])
    assert code == 2
    _report("5 transversality")


def _random_poly_with_u_vectors(rng, n, m):
    vectors = set()
    while len(vectors) < m:
        vectors.add(tuple(rng.randint(0, 3) for _ in range(n)))
    terms = {}
    for u in vectors:
        x = tuple(rng.randint(0, 2) for _ in range(n))
        terms[mono(x, u)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(n, terms)


def test_criterion_6_candidate_bound_property():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.choice([2, 3])
        m = rng.randint(1, 8)
        p = _random_poly_with_u_vectors(rng, n, m)
        cand = candidate_hyperplanes(p)
        distinct = len(p.u_exponent_vectors())
        assert len(cand) <= distinct * (distinct - 1) // 2
        assert candidate_hyperplanes(p.scale(Fraction(9, 7))) == cand
        shuffled = list(p.terms.items())
        rng.shuffle(shuffled)
        assert candidate_hyperplanes(Poly(p.n, dict(shuffled))) == cand
    _report("6 candidate bound and invariance")


def test_criterion_7_ring_and_injectivity():
    rng = random.Random(72)
    for _ in range(500):
        n = rng.choice([1, 2])
        p = rand_poly(rng, n, max_terms=3)
        q = rand_poly(rng, n, max_terms=3)
        assert EPoly.from_poly(p + q) == EPoly.from_poly(p) + EPoly.from_poly(q)
        assert EPoly.from_poly(p * q) == EPoly.from_poly(p) * EPoly.from_poly(q)
        assert EPoly.from_poly(p).is_zero() == p.is_zero()
    _report("7 ring homomorphism and faithfulness")


def test_criterion_8_derivative_finite_differences():
    # relative error with a floor of 1 (pure relative error is ill-posed at
    # near-critical points)
    rng = random.Random(73)
    h = 1e-6
    for _ in range(20):
        n = rng.choice([1, 2])
        f = EPoly.from_poly(rand_poly(rng, n, max_terms=3, max_exp=2))
        if f.is_zero():
            continue
        for i in range(1, n + 1):
            df = f.derivative(i)
            for _ in range(100 // n):
                x = [rng.uniform(-2.0, 2.0) for _ in range(n)]
                up = list(x)
                down = list(x)
                up[i - 1] += h
                down[i - 1] -= h
                fd = (f.eval_float(up) - f.eval_float(down)) / (2 * h)
                exact = df.eval_float(x)
                assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))
    _report("8 derivative vs finite differences")


def test_criterion_9_verify_paper_end_to_end(capsys):
    start = time.perf_counter()
    code = cli.main(["verify-paper"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert report["result"]["failed"] == 0
    assert elapsed < 30.0, f"verify-paper took {elapsed:.1f}s"
    with capsys.disabled():
        print()
        _report(f"9 verify-paper ({report['result']['total']} checks, {elapsed:.1f}s)")
