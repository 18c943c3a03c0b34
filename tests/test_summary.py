"""The human summary on stderr against the JSON report on stdout.

``cli.summary`` renders every stderr line of a run that prints its report
from the report dict alone, so for each such run stderr must equal
``summary(json.loads(stdout))``.  A fixed table of command lines covers
every branch of ``summary`` and pins its lines, and every seed-1 input of
the benchmark's generator (``bench/gen.py``, imported as
``replay_reports.py`` imports it) is checked for the equality.  The module
needs no pytest:

    PYTHONPATH=src python3 tests/test_summary.py
"""

import json
from pathlib import Path

from expalg import cli

from replay_reports import load, run
from util import run_standalone

ROOT = Path(__file__).resolve().parent.parent

#: (argv, stderr lines) covering every branch of ``cli.summary``
CASES = [
    (["canon", "--", "2*x1 - u1 + 1"], ["canonical poly: 2*x1 - u1 + 1"]),
    (["canon", "--", "2*x1 + 1 - exp(x1)"], ["canonical epoly: (2*x1 + 1) + (-1)*exp(x1)"]),
    (["hyperplanes", "--", "x1*x2 - 3"], ["candidate family undefined: at most one u-monomial"]),
    (["hyperplanes", "--", "x1*u2 + x2*u1 - x1 - x2"], ["candidates: x2 = 0, x1 - x2 = 0, x1 = 0"]),
    (
        ["classify", "--", "(x1*u2 + x2*u1 - x1 - x2)*(u1 + u2 + 1)"],
        [
            "verdict: HyperplaneComponents (ConditionalOnAssertedHypotheses)",
            "  component: x2 = 0",
            "  component: x1 = 0",
            "  rejected:  x1 - 2*x2 = 0",
            "  rejected:  x1 - x2 = 0",
            "  rejected:  x1 + x2 = 0",
            "  rejected:  2*x1 - x2 = 0",
        ],
    ),
    (
        ["classify1e", "--", "x2^2*(x2^2 + 1) + x1"],
        [
            "verdict: Inconclusive (ConditionalOnAssertedHypotheses)",
            "  slice factor x2^2: component",
            "  slice factor (x2^2 + 1)^1: no real points",
        ],
    ),
    (
        ["classify1e", "--", "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2"],
        [
            "verdict: Inconclusive (ConditionalOnAssertedHypotheses)",
            "  slice factor (x2 - 1)^2: component",
            "  slice factor (x2 + 1)^2: component",
        ],
    ),
    (
        ["roots", "--domain", "-3", "3", "--", "(x1^2 - 2)^2*(x1 + 1)"],
        [
            "1 certified roots on [-3.0, 3.0], 2 uncertified intervals",
            "  SignChange: [-1.0000000004656613, -0.9999999997671694]",
        ],
    ),
    (["sample2d", "--depth", "4", "--", "x1*exp(x2) + x2*exp(x1) - x1 - x2"], ["61 cells retained at depth 4"]),
    (
        ["transversal", "--", "2*x1 - u1 + 1"],
        ["at x1 in [1.2564312079921365, 1.256431208923459]: Transverse, margin 1.51286"],
    ),
    (
        ["transversal", "--root-of", "x1 - 800", "--domain", "700", "900", "--", "u1 - 2"],
        ["at x1 in [800.0, 800.0]: Undetermined, margin beyond the float range"],
    ),
]


def rendered(stdout: str) -> str:
    return "".join(f"{line}\n" for line in cli.summary(json.loads(stdout)))


def test_summary_of_each_branch():
    for argv, want in CASES:
        code, out, err = run(cli, argv)
        assert code == cli.EXIT_OK and err == rendered(out), (argv, code, err)
        assert err.splitlines() == want, (argv, err)
    code, out, err = run(cli, ["verify-paper"])
    checks = json.loads(out)["result"]["checks"]
    assert code == cli.EXIT_OK and err == rendered(out) and len(checks) >= 30, (code, err)
    lines = err.splitlines()
    assert lines[0] == "PASS  expand/two-point-line  ((2*x1 + 1) + (-1)*exp(x1))", lines[0]
    assert lines[2] == "PASS  expand/sugar-agrees", lines[2]
    assert lines[-1] == f"{len(checks)}/{len(checks)} corpus checks passed", lines[-1]
    # no corpus check fails, so a failed one is rendered from a report alone
    failed = {
        "command": "verify-paper",
        "result": {"total": 2, "passed": 1, "failed": 1, "checks": [
            {"name": "a", "passed": False, "detail": "off by one"},
            {"name": "b", "passed": True, "detail": ""},
        ]},
    }
    assert cli.summary(failed) == ["FAIL  a  (off by one)", "PASS  b", "1/2 corpus checks passed"]


def test_summary_of_every_seed_1_benchmark_report():
    _, gen = load(ROOT)
    reports = 0
    for workload, make in gen.WORKLOADS.items():
        for case in make(1):
            code, out, err = run(cli, case.argv)
            if out:
                assert err == rendered(out), (workload, case.label, case.argv)
                reports += 1
            else:  # an error exit: one message, no report
                assert code != cli.EXIT_OK and err.count("\n") == 1, (workload, case.argv, code, err)
    assert reports >= 400, reports


if __name__ == "__main__":
    run_standalone(globals())
