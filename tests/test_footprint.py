"""What every expalg process pays for: no OpenSSL.

``hashlib`` maps OpenSSL's libcrypto into the process, and the package
imports no hash module.  The one module it uses that could pull ``hashlib``
in is ``random``, which takes SHA-512 (for string seeds) from CPython's
built-in ``_sha512`` (Python 3.10 and 3.11) or ``_sha2`` (3.12 and later)
and falls back to ``hashlib`` only where neither exists.  A fresh process that imports
the command line and classifies one input must not have loaded ``hashlib``.
The module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_footprint.py
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from util import run_standalone

ROOT = Path(__file__).resolve().parent.parent


def test_a_classify_process_loads_no_openssl():
    if not any(importlib.util.find_spec(name) for name in ("_sha512", "_sha2")):
        print("skipped: this interpreter's random module takes SHA-512 from hashlib")
        return
    code = (
        "import contextlib, io, sys\n"
        "import expalg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = expalg.cli.main(['classify', '--ambient', '2', '--', 'x1*u2 + x2*u1 - x1 - x2'])\n"
        "print(code, sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"], done.stdout


if __name__ == "__main__":
    run_standalone(globals())
