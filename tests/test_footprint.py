"""What every expalg process pays for: no OpenSSL and no ``dataclasses``.

``hashlib`` maps OpenSSL's libcrypto into the process, and the package
imports no hash module.  The one module it uses that could pull ``hashlib``
in is ``random``, which takes SHA-512 (for string seeds) from CPython's
built-in ``_sha512`` (Python 3.10 and 3.11) or ``_sha2`` (3.12 and later)
and falls back to ``hashlib`` only where neither exists.  The package's
records are named tuples, so nothing loads ``dataclasses``, which brings
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) into the
process.  A fresh process that imports the command line and runs one
``classify``, ``roots``, ``sample2d --rigorous`` or ``verify-paper`` must
have loaded none of them.  The module needs no pytest, so it also runs as a
script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_footprint.py
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from util import run_standalone

ROOT = Path(__file__).resolve().parent.parent

#: command lines, each run by ``expalg.cli.main`` in a fresh process
COMMANDS = [
    ["classify", "--ambient", "2", "--", "x1*u2 + x2*u1 - x1 - x2"],
    ["roots", "2*x1 + 1 - exp(x1)", "--domain", "-5", "5"],
    ["sample2d", "x1*exp(x2) + x2*exp(x1) - x1 - x2", "--depth", "5", "--rigorous"],
    ["verify-paper"],
]


def test_a_fresh_process_loads_no_openssl_and_no_dataclasses():
    absent = ["dataclasses", "inspect"]
    if any(importlib.util.find_spec(name) for name in ("_sha512", "_sha2")):
        absent += ["hashlib", "_hashlib"]
    else:
        print("hashlib not checked: this interpreter's random module takes SHA-512 from it")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in COMMANDS:
        code = (
            "import contextlib, io, sys\n"
            "import expalg.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = expalg.cli.main({args!r})\n"
            f"print(code, [m for m in {absent!r} if m in sys.modules])\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "[]"], (args[0], done.stdout)


if __name__ == "__main__":
    run_standalone(globals())
