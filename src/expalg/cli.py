"""Command-line interface: JSON reports on stdout, human summaries on stderr.

Exit codes: 0 success; 1 input error: a parse error, an exponent, a
variable index or an ``--ambient`` above 64, parentheses nested more than 64
deep, a value outside the float range, a non-positive root tolerance, a
negative or non-finite transversality ``--tol``, an ``--attempts`` below 1,
a negative ``--depth``, a ``--box`` side that is not finite (NaN
included), is reversed, has width 0 or is too narrow to halve ``--depth``
times, or an unwritable ``--output`` path (the report is still printed); 2
hypothesis violation (precondition of the requested analysis fails on this
input); 3 internal invariant breach or a failed ``verify-paper`` check
(never expected).

Each subcommand handler computes its report's input, result and hypothesis
log and prints nothing; ``main`` alone times the handler and has ``_emit``
assemble, print and write the report.  The human summary on stderr is
rendered by ``summary`` from the report dict alone, so it says what the JSON
says.

Reports are versioned (schemaVersion 2) and byte-identical for identical
input and mode: the irreducibility oracle draws its lines from one fixed
sequence, so no option seeds it.  Wall-clock timings are only included when
--timings is given, since they would break reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from . import corpus
from .classify import ComponentReport, classify_codim1, classify_single_exp
from .epoly import EPoly
from .errors import (
    DimensionError,
    DriverError,
    ExpalgError,
    HyperplaneError,
    HypothesisViolation,
    InternalInvariantError,
    ParseError,
)
from .hyperplanes import candidate_hyperplanes
from .intervals import Interval
from .numeric import (
    RootCert,
    check_transversality,
    default_root_domain,
    isolate_roots_1d,
    sample_zero_cells_2d,
)
from .parsing import (
    format_epoly,
    format_hyperplane,
    format_poly,
    parse_epoly,
    parse_poly,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_INTERNAL = 3

#: a subcommand handler's share of its report: input, result, hypothesis log
Report = tuple[str | None, dict, list[dict]]


# ---------------------------------------------------------------------------
# JSON payload helpers
# ---------------------------------------------------------------------------


def _interval_json(iv: Interval) -> list[float]:
    return [iv.lo, iv.hi]


def _root_json(cert: RootCert) -> dict:
    return {
        "enclosure": _interval_json(cert.enclosure),
        "kind": cert.kind,
        "residualBound": cert.residual_bound,
    }


def _hyperplane_json(h) -> dict:
    return {"normal": list(h.normal), "equation": format_hyperplane(h)}


def _report_json(rep: ComponentReport) -> dict:
    payload = {
        "verdict": rep.verdict,
        "conditionality": rep.conditionality,
        "hyperplanes": [
            {**_hyperplane_json(c.hyperplane), "certificate": c.certificate}
            for c in rep.hyperplanes
        ],
        "rejected": [
            {**_hyperplane_json(c.hyperplane), "reason": c.reason}
            for c in rep.rejected
        ],
        "residual": rep.residual,
        "degenerate": rep.degenerate,
        "notes": rep.notes,
    }
    if rep.roots is not None:
        payload["roots"] = [_root_json(r) for r in rep.roots]
    if rep.slice_components is not None:
        payload["sliceComponents"] = [
            {
                "factor": format_poly(sc.factor),
                "multiplicity": sc.multiplicity,
                "realPoints": sc.real_points,
            }
            for sc in rep.slice_components
        ]
    if rep.slice_identically_zero is not None:
        payload["sliceIdenticallyZero"] = rep.slice_identically_zero
    return payload


def _hypothesis_json(rep: ComponentReport) -> list[dict]:
    return [
        {"hypothesis": h.name, "status": h.status, "detail": h.detail}
        for h in rep.hypothesis_log
    ]


def _emit(args, input_text, result, hypothesis_log, elapsed: float) -> None:
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": args.command,
        "input": input_text,
        "mode": "rigorous" if getattr(args, "rigorous", False) else "fast",
        "seed": 0,  # no step is seeded; schemaVersion 3 drops the key
        "result": result,
        "hypothesisLog": hypothesis_log,
        "timings": {"totalMs": round(elapsed * 1000.0, 3)} if args.timings else None,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    for line in summary(report):
        _say(line)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def summary(report: dict) -> list[str]:
    """The human summary of a report, one line per entry, read from the report alone."""
    command, r = report["command"], report["result"]
    span = "[{0!r}, {1!r}]".format
    if command == "canon":
        return [f"canonical {r['kind']}: {r['canonical']}"]
    if command == "hyperplanes":
        if r["degenerate"]:
            return ["candidate family undefined: at most one u-monomial"]
        return ["candidates: " + ", ".join(h["equation"] for h in r["hyperplanes"])]
    if command == "classify":
        lines = [f"verdict: {r['verdict']} ({r['conditionality']})"]
        lines += [f"  component: {h['equation']}" for h in r["hyperplanes"]]
        return lines + [f"  rejected:  {h['equation']}" for h in r["rejected"]]
    if command == "classify1e":
        lines = [f"verdict: {r['verdict']} ({r['conditionality']})"]
        for sc in r.get("sliceComponents", []):
            # a factor of several terms, and only such a factor, has spaces
            base = f"({sc['factor']})" if " " in sc["factor"] else sc["factor"]
            tag = "component" if sc["realPoints"] else "no real points"
            lines.append(f"  slice factor {base}^{sc['multiplicity']}: {tag}")
        return lines
    if command == "roots":
        left = len(r["uncertified"])
        lines = [
            f"{r['count']} certified roots on {span(*r['domain'])}"
            + (f", {left} uncertified intervals" if left else "")
        ]
        return lines + [f"  {c['kind']}: {span(*c['enclosure'])}" for c in r["certified"]]
    if command == "sample2d":
        return [f"{r['count']} cells retained at depth {r['depth']}"]
    if command == "transversal":
        return [
            f"at x1 in {span(*c['rootEnclosure'])}: {c['verdict']}, margin "
            + ("beyond the float range" if c["tangencyMargin"] is None else f"{c['tangencyMargin']:.6g}")
            for c in r["checks"]
        ]
    # verify-paper
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}" + (f"  ({c['detail']})" if c["detail"] else "")
        for c in r["checks"]
    ]
    return lines + [f"{r['passed']}/{r['total']} corpus checks passed"]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_canon(args) -> Report:
    as_epoly = args.epoly or "exp" in args.text
    if as_epoly:
        value = parse_epoly(args.text, args.ambient)
        canonical = format_epoly(value)
        kind = "epoly"
    else:
        value = parse_poly(args.text, args.ambient)
        canonical = format_poly(value)
        kind = "poly"
    return args.text, {"kind": kind, "canonical": canonical}, []


def _cmd_hyperplanes(args) -> Report:
    p = parse_poly(args.text, args.ambient)
    cand = candidate_hyperplanes(p)
    result = {
        "degenerate": not cand,
        "count": len(cand),
        "hyperplanes": [_hyperplane_json(h) for h in cand],
    }
    return format_poly(p), result, []


def _cmd_classify(args) -> Report:
    p = parse_poly(args.text, args.ambient)
    rep = classify_codim1(
        p,
        assume_irreducible=args.assert_irreducible,
        assume_codim1=args.assert_codim1,
        attempts=args.attempts,
    )
    return format_poly(p), _report_json(rep), _hypothesis_json(rep)


def _cmd_classify1e(args) -> Report:
    p = parse_poly(args.text, args.ambient)
    rep = classify_single_exp(p, attempts=args.attempts)
    return format_poly(p), _report_json(rep), _hypothesis_json(rep)


def _cmd_roots(args) -> Report:
    f = parse_epoly(args.text, args.ambient)
    if f.n != 1:
        raise DriverError("roots requires a 1-variable exponential polynomial")
    domain = tuple(args.domain) if args.domain else default_root_domain(f)
    certs, leftovers = isolate_roots_1d(f, domain, args.tol)
    result = {
        "domain": [float(domain[0]), float(domain[1])],
        "tolerance": args.tol,
        "count": len(certs),
        "certified": [_root_json(c) for c in certs],
        "uncertified": [_root_json(c) for c in leftovers],
    }
    return format_epoly(f), result, []


def _cmd_sample2d(args) -> Report:
    f = parse_epoly(args.text, args.ambient)
    if f.n != 2:
        raise DriverError("sample2d requires a 2-variable exponential polynomial")
    x_lo, x_hi, y_lo, y_hi = args.box if args.box else [-2.0, 2.0, -2.0, 2.0]
    cells = sample_zero_cells_2d(f, [(x_lo, x_hi), (y_lo, y_hi)], args.depth, args.rigorous)
    result = {
        "box": [[x_lo, x_hi], [y_lo, y_hi]],
        "depth": args.depth,
        "cellWidth": [(x_hi - x_lo) / 2**args.depth, (y_hi - y_lo) / 2**args.depth],
        "count": len(cells),
        "cells": [[*x, *y] for x, y in cells],
    }
    return format_epoly(f), result, []


def _cmd_transversal(args) -> Report:
    p = parse_poly(args.text, args.ambient)
    n = p.n
    coords = [Fraction(c) for c in (args.coords or [])]
    if len(coords) != n - 1:
        raise DriverError(
            f"transversal on an ambient-{n} polynomial needs {n - 1} --coords values"
        )
    if args.root_of:
        f_root = parse_epoly(args.root_of)
    else:
        if n != 1:
            raise DriverError("--root-of is required when the polynomial has n >= 2")
        f_root = EPoly.from_poly(p)
    if f_root.n != 1:
        raise DriverError("--root-of must be a 1-variable exponential polynomial")
    domain = tuple(args.domain) if args.domain else default_root_domain(f_root)
    certs, _ = isolate_roots_1d(f_root, domain, args.root_tol)
    if not certs:
        raise HypothesisViolation("no certified roots to lift")
    if args.root_index is not None:
        if not 0 <= args.root_index < len(certs):
            raise DriverError(
                f"--root-index out of range 0..{len(certs) - 1}"
            )
        selected = [certs[args.root_index]]
    else:
        selected = [c for c in certs if not c.enclosure.contains(0.0)]
        if not selected:
            raise HypothesisViolation(
                "every certified root enclosure contains x1 = 0; select one "
                "explicitly with --root-index to see the violation"
            )
    reports = [(cert, check_transversality(p, cert, coords, args.tol)) for cert in selected]
    result = {
        "tolerance": args.tol,
        "checks": [
            {
                "rootEnclosure": _interval_json(cert.enclosure),
                "point": list(rep.point),
                "jacobianRankLowerBound": rep.jacobian_rank_lower_bound,
                "tangencyMargin": rep.tangency_margin,
                "verdict": rep.verdict,
            }
            for cert, rep in reports
        ],
    }
    return format_poly(p), result, []


def _cmd_verify_paper(args) -> Report:
    checks = corpus.run_all()
    failed = [c for c in checks if not c.passed]
    result = {
        "total": len(checks),
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }
    return None, result, []


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("text")
    sub.add_argument("--ambient", type=int, default=None, help="override variable count")


#: a negative number as ``float`` reads it: argparse's own test takes
#: ``-5e0`` and ``-inf`` for options, so they could not be option values
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expalg",
        description="Analyze real zero sets of exponential polynomials",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    canon = subs.add_parser("canon", help="parse and print the canonical form")
    _add_input(canon)
    canon.add_argument("--epoly", action="store_true", help="force the exponential grammar")
    canon.set_defaults(func=_cmd_canon)

    hyper = subs.add_parser("hyperplanes", help="candidate hyperplane family")
    _add_input(hyper)
    hyper.set_defaults(func=_cmd_hyperplanes)

    classify = subs.add_parser("classify", help="codimension-1 component classification")
    _add_input(classify)
    classify.add_argument("--assert-irreducible", action="store_true")
    classify.add_argument("--assert-codim1", action="store_true")
    classify.add_argument("--attempts", type=int, default=8)
    classify.set_defaults(func=_cmd_classify)

    single = subs.add_parser("classify1e", help="single-exponential classification")
    _add_input(single)
    single.add_argument("--attempts", type=int, default=8)
    single.set_defaults(func=_cmd_classify1e)

    roots = subs.add_parser("roots", help="certified 1-D root isolation")
    _add_input(roots)
    roots.add_argument("--domain", type=float, nargs=2, default=None)
    roots.add_argument("--tol", type=float, default=1e-9)
    roots.set_defaults(func=_cmd_roots)

    sample = subs.add_parser("sample2d", help="quadtree zero-cell sampling")
    _add_input(sample)
    sample.add_argument("--box", type=float, nargs=4, default=None, metavar=("X0", "X1", "Y0", "Y1"))
    sample.add_argument("--depth", type=int, default=8)
    sample.add_argument("--rigorous", action="store_true", help="certified powers and exp on float pairs")
    sample.set_defaults(func=_cmd_sample2d)

    trans = subs.add_parser("transversal", help="graph transversality at lifted roots")
    _add_input(trans)
    trans.add_argument("--root-of", default=None, help="1-variable epoly whose root lifts")
    trans.add_argument("--coords", nargs="*", default=None, help="values of x2..xn")
    trans.add_argument("--root-index", type=int, default=None)
    trans.add_argument("--tol", type=float, default=1e-6)
    trans.add_argument("--root-tol", type=float, default=1e-9)
    trans.add_argument("--domain", type=float, nargs=2, default=None)
    trans.set_defaults(func=_cmd_transversal)

    verify = subs.add_parser(
        "verify-paper", help="run the embedded example corpus against expected outcomes"
    )
    verify.set_defaults(func=_cmd_verify_paper)

    for sub in subs.choices.values():
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        sub.add_argument("--output", default=None, help="also write the JSON report to a file")
        sub.add_argument("--timings", action="store_true", help="include wall-clock timings")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process: parsing reads it and leaves it unchanged, and each call gets
    a fresh namespace.  A malformed command line, or an option the
    subcommand does not take, still raises ``SystemExit`` with code 2, from
    argparse.
    """
    args = _shared_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        input_text, result, hypothesis_log = args.func(args)
    except ParseError as exc:
        _say(f"input error: {exc}")
        return EXIT_INPUT
    except (HypothesisViolation, DriverError) as exc:
        _say(f"hypothesis violation: {exc}")
        return EXIT_HYPOTHESIS
    except (DimensionError, HyperplaneError, ValueError) as exc:
        _say(f"input error: {exc}")
        return EXIT_INPUT
    except OverflowError as exc:
        _say(f"input error: {exc}: a value is outside the float range")
        return EXIT_INPUT
    except InternalInvariantError as exc:  # pragma: no cover - never expected
        _say(f"internal invariant breach: {exc}")
        return EXIT_INTERNAL
    except ExpalgError as exc:  # pragma: no cover - residual guard
        _say(f"error: {exc}")
        return EXIT_INTERNAL
    try:
        _emit(args, input_text, result, hypothesis_log, time.perf_counter() - start)
    except OSError as exc:
        _say(f"input error: cannot write the report: {exc}")
        return EXIT_INPUT
    # verify-paper alone counts failed checks; a failed corpus check is a
    # fault of the program, so it exits 3 after its report is out
    return EXIT_INTERNAL if result.get("failed") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
