#!/usr/bin/env python3
"""Self-tests of the benchmark's reference and checkers.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

The reference must reproduce known values, and every checker must pass a
real report of the program and reject the same report once corrupted.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from refeval import OneVar, TermPoly, candidate_normals, sd_polynomial  # noqa: E402

CLI = run.load_program()

AXES = TermPoly(2, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): 1, ((1, 0), (0, 0)): -1, ((0, 1), (0, 0)): -1})
LINE = TermPoly(1, {((1,), (0,)): 2, ((0,), (0,)): 1, ((0,), (1,)): -1})  # 2x + 1 - e^x


def report(argv) -> dict:
    code, text, _ = run.run_report(CLI, argv)
    assert code == 0, f"exit code {code} for {argv}"
    return json.loads(text)


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except check.CheckError:
        return True
    return False


def test_reference_values():
    roots = OneVar(LINE).roots()
    assert roots[0] == 0 and abs(roots[1] - Decimal("1.2564312086261696770")) < Decimal("1e-18")
    assert sd_polynomial([2, 3, 5]) == [576, 0, -960, 0, 352, 0, -40, 0, 1]
    v, _ = AXES.value([Fraction(1), Fraction(2)])
    assert abs(float(v) - (math.exp(2) + 2 * math.e - 3)) < 1e-12
    assert candidate_normals(AXES) == [(0, 1), (1, -1), (1, 0)]
    fault = OneVar(TermPoly(1, {((7,), (0,)): 1, ((1,), (0,)): -3, ((0,), (0,)): 1, ((0,), (1,)): -1}))
    assert len(fault.roots()) == 4 and abs(fault.roots()[-1] - Decimal("21.4649")) < Decimal("1e-4")


def test_shifted_root_enclosure_rejected():
    roots = OneVar(LINE).roots()
    res = report(gen.cli_args("roots", LINE.text(), 1, "--domain", "-2", "3"))["result"]
    check.check_roots(res, LINE, roots, (-2, 3))
    bad = copy.deepcopy(res)
    enc = next(c for c in bad["certified"] if c["kind"] == "SignChange")["enclosure"]
    enc[0] += 0.01
    enc[1] += 0.01
    assert rejects(check.check_roots, bad, LINE, roots, (-2, 3))


def test_dropped_cell_rejected():
    res = report(gen.cli_args("sample2d", AXES.text(), 2, "--depth", "5"))["result"]
    check.check_cells(res, AXES, gen.BOX, 5, [(1, 0), (0, 1)], seed=7)
    bad = copy.deepcopy(res)
    bad["cells"] = [c for c in bad["cells"] if not (c[0] <= 0.0 <= c[1] and c[2] <= 1.0 <= c[3])]
    bad["count"] = len(bad["cells"])
    assert len(bad["cells"]) < len(res["cells"])
    assert rejects(check.check_cells, bad, AXES, gen.BOX, 5, [(1, 0), (0, 1)], 7)


def test_extra_certified_hyperplane_rejected():
    rep = report(gen.cli_args("classify", AXES.text(), 2))
    res, log = rep["result"], rep["hypothesisLog"]
    assert check.check_classify(res, log, AXES, [(1, 0), (0, 1)], False, 3) is None
    bad = copy.deepcopy(res)
    bad["hyperplanes"] += bad["rejected"]
    bad["rejected"] = []
    assert rejects(check.check_classify, bad, log, AXES, [(1, 0), (0, 1)], False, 3)


def test_wrong_slice_factor_rejected():
    e1 = [Fraction(c) for c in (2, 0, 1)]  # x^2 + 2, no real root
    e2 = [Fraction(c) for c in (-3, 3, 0, 1)]  # x^3 + 3x - 3
    s = gen.in_x2(e1, 3) * gen.in_x2(e2, 3) ** 2
    text = f"({gen.in_x2(e1, 3).text()})*({gen.in_x2(e2, 3).text()})^2"
    p = s + TermPoly.var(3, "x", 1) * TermPoly.var(3, "x", 3) + (TermPoly.var(3, "u", 1) - TermPoly.const(3, 1))
    full = f"{text} + x1*(x3) + (u1 - 1)*(1)"
    res = report(gen.cli_args("classify1e", full, 3))["result"]
    factors = [(e1, 1, False), (e2, 2, True)]
    check.check_classify1e(res, p, factors, False, 5)
    bad = copy.deepcopy(res)
    bad["sliceComponents"][0]["factor"] = bad["sliceComponents"][0]["factor"].replace("+ 2", "+ 3")
    assert rejects(check.check_classify1e, bad, p, factors, False, 5)
    bad = copy.deepcopy(res)
    bad["sliceComponents"][1]["realPoints"] = not bad["sliceComponents"][1]["realPoints"]
    assert rejects(check.check_classify1e, bad, p, factors, False, 5)


def test_known_faults_detected():
    cases = {c.label: c for c in gen.exact(1) + gen.symbolic(1)}
    for label, fault in (("classify fault", check.INCOMPLETE_ROOT_SET),
                         ("classify1e fault", check.INCOMPLETE_ROOT_SET),
                         ("product fault", check.IRREDUCIBLE_AFTER_FAILED_CHECK)):
        rep = report(cases[label].argv)
        assert cases[label].check(rep["result"], rep["hypothesisLog"]) == fault


def test_leading_minus_needs_separator():
    # Without "--" argparse takes "-x1*u2+x2" for an option and exits with 2,
    # the code the program documents for a hypothesis violation.
    code, _, _ = run.run_report(CLI, ["classify", "-x1*u2+x2"])
    assert code == 2
    assert report(gen.cli_args("classify", "-x1*u2+x2", 2))["result"]["verdict"]


def main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS  {name}")
            except Exception as exc:  # report every failing test, then exit 1
                failures += 1
                print(f"FAIL  {name}: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
