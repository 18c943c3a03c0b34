"""What every expalg process pays for: the oracle's stable seed without
OpenSSL.

``classify._stable_seed`` takes SHA-256 from CPython's built-in hash module
(``_sha2`` from Python 3.12, ``_sha256`` before), not from ``hashlib``, which
maps OpenSSL's libcrypto into the process.  The seed is pinned: the first 8
bytes of the SHA-256 of p's sorted terms, big-endian, XOR the seed, here
recomputed with ``hashlib`` on seeded polynomials and checked against the
seeds ``test_poly.py`` pins.  A fresh process that imports the command line
and classifies one input must not have loaded ``hashlib``.  The module needs
no pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_footprint.py
"""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

from expalg.classify import _stable_seed
from expalg.parsing import parse_poly

from util import rand_nonzero_poly, run_standalone

ROOT = Path(__file__).resolve().parent.parent

#: (text, n, seed at 0) as pinned by test_poly.LAYOUT_CASES
PINNED = [
    ("2*x1 - u1 + 1", 1, 13986653927692771661),
    ("x1^2*u1 - 3*u1^2 + x1*u1 - 1/2", 1, 6495893682063435354),
    ("x1*u2 + x2*u1 - x1 - x2", 2, 16384157865105445991),
    ("(x1 + u2 - 1)*(x2 + u1 + 1)", 2, 12207926651023008824),
    ("x1*x2*u3 + 5*u1^2*u2 - x3^3 + 7/3*u3", 3, 11469007431035589914),
    ("(x1 + u2 - 1)*(x2 + u3 + 1)", 3, 2983123310381854395),
]


def hashlib_seed(p, seed: int) -> int:
    n = p.n
    blob = repr(sorted((m[:n], m[n:], c.numerator, c.denominator) for m, c in p.terms.items()))
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big") ^ seed


def test_stable_seed_matches_the_hashlib_recipe():
    rng = random.Random(3301)
    for _ in range(300):
        p = rand_nonzero_poly(rng, rng.randint(1, 3), max_terms=6, max_exp=3)
        seed = rng.choice((0, 1, 7, rng.getrandbits(64)))
        assert _stable_seed(p, seed) == hashlib_seed(p, seed), (p, seed)
    for text, n, pinned in PINNED:
        p = parse_poly(text, n)
        assert _stable_seed(p, 0) == hashlib_seed(p, 0) == pinned, text


def test_a_classify_process_loads_no_openssl():
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        print("skipped: this interpreter has no built-in sha256 module")
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
