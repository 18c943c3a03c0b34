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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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


def digest(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    text = re.sub(r'"totalMs": [-+.e0-9]+', '"totalMs": T', out.getvalue())
    return hashlib.sha256(repr((code, text, err.getvalue())).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", type=Path, help="checkout whose src/ and bench/ are replayed")
    ap.add_argument("--seeds", default="1,3,7", help="comma-separated benchmark seeds")
    args = ap.parse_args()
    cli, gen = load(args.root)
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload, make in gen.WORKLOADS.items():
            for case in make(seed):
                print(workload, seed, case.label, digest(cli, case.argv), flush=True)
    print("verify-paper", "-", "verify-paper", digest(cli, ["verify-paper"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
