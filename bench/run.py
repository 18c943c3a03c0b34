#!/usr/bin/env python3
"""Benchmark for expalg: seeded CLI reports, timed end to end and per layer.

    python3 bench/run.py --workload cells2d --seed 1 --seconds 20 --trace 0

runs one workload in this process: its reports go through ``expalg.cli.main``
one at a time from a single thread (a closed loop with one client), in whole
rounds over the workload's input set until ``--seconds`` have passed.  Every
report of the first round is checked against the benchmark's own reference;
later rounds must repeat it byte for byte.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, each in its own
process, and a table of their metrics is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
from check import CheckError, need
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 9
# Duration of calibrate() on the machine this was built on in a quiet spell;
# report times are scaled to that machine speed (see README.md).
CALIBRATION_REFERENCE_S = 0.0015
CALIBRATION_WINDOW = 9
# Report times follow the loop's duration to about this power when the
# machine's speed drifts (fitted over several minutes of cells2d, exact and
# symbolic reports; see README.md).
CALIBRATION_EXPONENT = 0.65

# Timed inside a fresh interpreter, so interpreter start-up and process
# creation (which swing widely on a shared machine) stay out of it.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
from expalg import cli
cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


def load_program():
    """Import expalg from this checkout's sources, never from elsewhere."""
    if not (SRC / "expalg" / "cli.py").is_file():
        sys.exit(f"run.py: no expalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from expalg import cli

    if Path(cli.__file__).resolve().parent != SRC / "expalg":
        sys.exit(f"run.py: imported expalg from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> float:
    code = SETUP_SNIPPET.format(src=str(SRC))
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        if k:  # the first launch also writes the bytecode caches
            times.append(float(done.stdout))
    return statistics.median(times)


def calibrate() -> float:
    """Duration of a fixed pure-Python loop, independent of expalg."""
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, 2400):
        table[(i, i % 7)] = i * 3
        if i % 8 == 0:
            acc += Fraction(i, i + 1)
    sum(table.values())
    return time.perf_counter() - t0


def scaled_times(times: list[float], cals: list[float]) -> list[float]:
    """Each report time at the reference machine speed.

    The speed at report j is read from the median of the calibration loops
    run right after the CALIBRATION_WINDOW reports around it.
    """
    half = CALIBRATION_WINDOW // 2
    out = []
    for j, t in enumerate(times):
        near = statistics.median(cals[max(0, j - half): j + half + 1])
        out.append(t * (CALIBRATION_REFERENCE_S / near) ** CALIBRATION_EXPONENT)
    return out


def run_report(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), time.perf_counter() - t0


def check_round(cases, outputs) -> tuple[Counter, list[str]]:
    """Faults per name, and every other wrong output, for one round."""
    faults: Counter = Counter()
    problems = []
    for case, (code, text) in zip(cases, outputs):
        try:
            need(code == 0, f"exit code {code}")
            report = json.loads(text)
            fault = case.check(report["result"], report["hypothesisLog"])
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{case.label} {case.argv[-1]!r}: {exc}")
            continue
        if fault:
            faults[fault] += 1
            print(f"known fault {fault}: {case.label} {case.argv[-1]!r}")
    return faults, problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = load_program()
    cases = gen.WORKLOADS[name](seed)
    setup = None if trace else measure_setup()

    run_report(cli, cases[-1].argv)  # untimed warm-up
    tracer = Tracer()
    if trace:
        tracer.install()
    times: list[float] = []
    cals: list[float] = []
    walls: list[float] = []
    first = None
    repeated = True
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t_round = time.perf_counter()
        outputs = []
        for case in cases:
            code, text, dt = run_report(cli, case.argv)
            times.append(dt)
            outputs.append((code, text))
            if trace:
                tracer.fold()
            else:
                cals.append(calibrate())
        walls.append(time.perf_counter() - t_round)
        if first is None:
            first = outputs
        repeated &= outputs == first
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(walls)
    if not trace:
        scaled = scaled_times(times, cals)
        per_report = [statistics.median(scaled[i::len(cases)]) for i in range(len(cases))]

    faults, problems = check_round(cases, first)
    if not repeated:
        problems.append("a later round did not repeat the first round's reports byte for byte")
    for p in problems:
        print(f"WRONG: {p}")
    wall = statistics.median(walls)
    print(f"workload {name}: seed {seed}, {rounds} rounds of {len(cases)} reports, median wall {wall:.4f} s per round"
          + (" (traced)" if trace else ""))
    print("round walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if cals:
        print(f"calibration loop: median {statistics.median(cals) * 1000:.3f} ms, reference "
              f"{CALIBRATION_REFERENCE_S * 1000:.3f} ms")
    per_fault = {k: v * rounds for k, v in sorted(faults.items())}
    if problems:
        per_fault["unexpected"] = len(problems) * rounds
    print("failed by fault: " + json.dumps(per_fault, sort_keys=True))

    if trace:
        metrics = tracer.metrics(rounds)
    else:
        q = statistics.quantiles(per_report, n=4)
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (sum(per_report), "s"),
            "report_p50_ms": (q[1] * 1000.0, "ms"),
            "report_p75_ms": (q[2] * 1000.0, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value} {unit}")
    return {
        "correct": not problems,
        "attempted": rounds * len(cases),
        "failed": sum(per_fault.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; a table of the results."""
    rows = []
    for name in gen.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        faults = next(line for line in lines if line.startswith("failed by fault: "))
        rows.append((name, json.loads(lines[-1]), faults))
    print()
    for name, res, faults in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}, {faults}")
        for key, m in res["metrics"].items():
            print(f"  {key:50s} {m['value']:>14.6g} {m['unit']}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
