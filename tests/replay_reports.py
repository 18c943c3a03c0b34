#!/usr/bin/env python3
"""Replay the benchmark's reports of a checkout and print one digest per report.

    python3 tests/replay_reports.py ROOT --seeds 1,3,7 > digests.txt

imports ``ROOT/bench/gen.py`` for the seeded inputs of every workload and runs
each case in this process through ``ROOT/src``'s ``expalg.cli.main``, then
``verify-paper``.  Each report gives one line

    workload seed label sha256

where the digest covers the exit code, stdout and stderr; a ``totalMs`` value
is masked.  Two checkouts produce byte-identical reports exactly when their
outputs are equal, so ``diff`` of the two outputs is the report diff.  Nothing
is written under ROOT: bytecode caches are off.

With ``--dump DIR`` each report is also written to
``DIR/<workload>-<seed>-<case index>-<label>.json`` (the case index counts
from 0 within its workload and seed; a run of characters other than
letters, digits, ``=``, ``.`` and ``-`` is written ``_``).  The file holds a
JSON object with the exit code (``exitCode``), stderr as a list of lines
(``stderr``) and stdout (``stdout``), parsed as JSON where it is a report
and kept as text otherwise, with ``totalMs`` masked as ``"T"``.
``tests/report_diff.py`` compares two such directories key path by key path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path


def load(root: Path):
    """(cli, gen) imported from the checkout at root, and from nowhere else."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from expalg import cli
    import gen

    for module, where in ((cli, root / "src" / "expalg"), (gen, root / "bench")):
        if Path(module.__file__).resolve().parent != where.resolve():
            sys.exit(f"replay_reports.py: imported {module.__name__} from {module.__file__}, not from {where}")
    return cli, gen


TOTAL_MS = re.compile(r'"totalMs": [-+.e0-9]+')


def run(cli, argv: list[str]) -> tuple[int | str | None, str, str]:
    """(exit code, stdout, stderr) of one in-process run of ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(code, out: str, err: str) -> str:
    text = TOTAL_MS.sub('"totalMs": T', out)
    return hashlib.sha256(repr((code, text, err)).encode()).hexdigest()


def dump(path: Path, code, out: str, err: str) -> None:
    """Write one run as the JSON object that ``report_diff.py`` reads."""
    try:
        stdout = json.loads(TOTAL_MS.sub('"totalMs": "T"', out))
    except ValueError:  # no report: an error exit prints nothing, or text
        stdout = out
    record = {"exitCode": code, "stderr": err.splitlines(), "stdout": stdout}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path, help="checkout whose src/ and bench/ are replayed")
    ap.add_argument("--seeds", default="1,3,7", help="comma-separated benchmark seeds")
    ap.add_argument("--dump", type=Path, default=None, metavar="DIR", help="also write each report to DIR")
    args = ap.parse_args()
    cli, gen = load(args.root)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)

    def replay(workload: str, seed, label: str, argv: list[str], stem: str) -> None:
        code, out, err = run(cli, argv)
        print(workload, seed, label, digest(code, out, err), flush=True)
        if args.dump:
            dump(args.dump / f"{stem}.json", code, out, err)

    for seed in (int(s) for s in args.seeds.split(",")):
        for workload, make in gen.WORKLOADS.items():
            for k, case in enumerate(make(seed)):
                stem = re.sub(r"[^\w=.-]+", "_", f"{workload}-{seed}-{k:04d}-{case.label}")
                replay(workload, seed, case.label, case.argv, stem)
    replay("verify-paper", "-", "verify-paper", ["verify-paper"], "verify-paper")
    return 0


if __name__ == "__main__":
    sys.exit(main())
