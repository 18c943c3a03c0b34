#!/usr/bin/env python3
"""Run the README's command-line examples and fail when one exits nonzero.

    python3 tests/readme_examples.py [ROOT]

reads the first code block of the "Command line" section of ROOT/README.md
and runs each line that begins ``expalg `` as ``python -m expalg.cli ...``
with ROOT/src on PYTHONPATH, so the documented examples and this check read
the same lines.  ROOT defaults to the checkout holding this file.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path


def examples(readme: str) -> list[list[str]]:
    """The argument lists of the ``expalg`` lines in the Command line block."""
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("expalg ")]


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    commands = examples((root / "README.md").read_text())
    if not commands:
        print("readme_examples.py: no expalg lines in the Command line block", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    failed = 0
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-m", "expalg.cli", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        print(f"exit {run.returncode}: expalg {shlex.join(argv)}", flush=True)
        if run.returncode:
            failed += 1
            print(run.stderr, file=sys.stderr, end="")
    print(f"{len(commands) - failed}/{len(commands)} README examples exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
