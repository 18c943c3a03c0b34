"""Checkers: each JSON report against the benchmark's own reference.

A checker returns None for a correct report, or the name of a known
program fault the report shows; it raises CheckError for any other wrong
output.  No checker compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

from refeval import TermPoly, candidate_normals, grid_table, to_dec

INCOMPLETE_ROOT_SET = "incomplete-root-set"
IRREDUCIBLE_AFTER_FAILED_CHECK = "irreducible-after-failed-check"

ZERO_TOL = Decimal("1e-40")  # |f| / sum |terms| below this is a zero
NONZERO_TOL = Decimal("1e-20")  # ... above this is clearly nonzero


class CheckError(Exception):
    pass


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sign(v) -> int:
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Zero cells
# ---------------------------------------------------------------------------


def _cover(v: float, origin: float, w: float, count: int) -> list[int]:
    """Indices k of the closed cells [origin + k w, origin + (k+1) w] holding v."""
    k = math.floor((v - origin) / w)
    return [
        i
        for i in (k - 1, k, k + 1)
        if 0 <= i < count and origin + i * w <= v <= origin + (i + 1) * w
    ]


def check_cells(result: dict, p: TermPoly, box, depth: int, planted, seed: int, grid: int = 64):
    (bx0, bx1), (by0, by1) = box
    need(result["box"] == [list(b) for b in box], "box differs from the request")
    need(result["depth"] == depth, "depth differs from the request")
    w = [(bx1 - bx0) / 2**depth, (by1 - by0) / 2**depth]
    need(result["cellWidth"] == w, "cellWidth is not box width / 2^depth")
    cells = result["cells"]
    need(result["count"] == len(cells), "count differs from the cell list")
    side = 2**depth
    keys = set()
    for x0, x1, y0, y1 in cells:
        need(bx0 <= x0 and x1 <= bx1 and by0 <= y0 and y1 <= by1, "cell outside the box")
        need(x1 - x0 == w[0] and y1 - y0 == w[1], "cell does not have the stated width")
        i, j = round((x0 - bx0) / w[0]), round((y0 - by0) / w[1])
        need(bx0 + i * w[0] == x0 and by0 + j * w[1] == y0, "cell is off the quadtree grid")
        keys.add((i, j))

    def covered(cols, rows) -> bool:
        return any((i, j) in keys for i in cols for j in rows)

    def col(v):
        return _cover(v, bx0, w[0], side)

    def row(v):
        return _cover(v, by0, w[1], side)

    # Sign changes of the reference between neighbours of a seeded grid.
    rng = random.Random(seed)
    ox, oy = rng.randrange(1, 1024) / 1024, rng.randrange(1, 1024) / 1024
    xs = [bx0 + (k + ox) * (bx1 - bx0) / grid for k in range(grid)]
    ys = [by0 + (k + oy) * (by1 - by0) / grid for k in range(grid)]
    table = [[sign(v) for v in r] for r in grid_table(p, xs, ys)]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            s = table[j][i]
            if s == 0:
                need(covered(col(x), row(y)), f"grid zero at ({x}, {y}) not in a cell")
            if i + 1 < grid and s * table[j][i + 1] < 0:
                c = col(x) + col(xs[i + 1])
                need(covered(range(min(c), max(c) + 1), row(y)), f"sign change near ({x}, {y}) misses every cell")
            if j + 1 < grid and s * table[j + 1][i] < 0:
                r = row(y) + row(ys[j + 1])
                need(covered(col(x), range(min(r), max(r) + 1)), f"sign change near ({x}, {y}) misses every cell")

    # Planted lines {d . x = 0}: dyadic points along them, spaced below w / 2.
    for d in planted:
        dx, dy = -d[1], d[0]
        big = max(abs(dx), abs(dy))
        step = 2.0 ** math.floor(math.log2(min(w) / (2 * big)))
        t = -2.0 / big
        while t <= 2.0 / big:
            x, y = t * dx, t * dy
            if bx0 <= x <= bx1 and by0 <= y <= by1:
                need(covered(col(x), row(y)), f"planted zero set point ({x}, {y}) not covered")
            t += step


# ---------------------------------------------------------------------------
# Roots of one-variable inputs
# ---------------------------------------------------------------------------


def _check_root_certs(certs, p: TermPoly, ref_roots) -> list[Decimal]:
    """Validate each certificate; return the reference roots they enclose."""
    found = []
    for c in certs:
        lo, hi = c["enclosure"]
        need(lo <= hi, "empty root enclosure")
        if c["kind"] == "SignChange":
            a, b = p.value([lo])[0], p.value([hi])[0]
            need(sign(a) * sign(b) < 0, f"SignChange enclosure [{lo}, {hi}] has no sign change")
        elif c["kind"] == "NewtonContraction":
            v, scale = p.value([lo])
            need(lo == hi and abs(v) <= ZERO_TOL * scale, f"NewtonContraction point {lo} is not a zero")
        elif c["kind"] != "UncertifiedTangential":
            raise CheckError(f"unknown root kind {c['kind']!r}")
        inside = [r for r in ref_roots if to_dec(lo) <= r <= to_dec(hi)]
        need(len(inside) == 1, f"enclosure [{lo}, {hi}] holds {len(inside)} reference roots")
        need(inside[0] not in found, "two enclosures hold the same root")
        found.append(inside[0])
    return found


def check_roots(result: dict, p: TermPoly, ref_roots, domain):
    need(result["domain"] == [float(domain[0]), float(domain[1])], "domain differs from the request")
    certs, rest = result["certified"], result["uncertified"]
    need(result["count"] == len(certs), "count differs from the certified list")
    _check_root_certs(certs + rest, p, ref_roots)
    need(len(certs) + len(rest) == len(ref_roots), f"{len(certs)} + {len(rest)} roots reported, reference has {len(ref_roots)}")


def check_classify_1var(result: dict, log, p: TermPoly, ref_roots):
    roots = result.get("roots") or []
    _check_root_certs(roots, p, ref_roots)
    if result["verdict"] == "IrreducibleSet" and len(roots) < len(ref_roots):
        # The verdict states the zero set is the certified root list.
        return INCOMPLETE_ROOT_SET
    return None


def check_transversal(result: dict, p: TermPoly, ref_roots):
    nonzero = [r for r in ref_roots if r != 0]
    checks = result["checks"]
    need(len(checks) == len(nonzero), f"{len(checks)} transversality checks for {len(nonzero)} nonzero roots")
    found = _check_root_certs(
        [{"enclosure": c["rootEnclosure"], "kind": "SignChange"} for c in checks], p, nonzero
    )
    need(len(found) == len(nonzero), "a nonzero root has no transversality check")
    dp = p.diff(1)
    for c in checks:
        x1 = c["point"][0]
        lo, hi = c["rootEnclosure"]
        need(lo <= x1 <= hi, "lifted point outside its root enclosure")
        slope, scale = dp.value([x1])
        margin = Decimal(c["tangencyMargin"])
        need(abs(margin - abs(slope)) <= Decimal("1e-6") * abs(slope) + Decimal("1e-9") * scale,
             f"margin {margin} differs from |f'(x1)| = {abs(slope):.12g}")
        if abs(slope) > Decimal("1e-3"):
            need(c["verdict"] == "Transverse", "clearly nonzero slope not certified Transverse")


# ---------------------------------------------------------------------------
# Hyperplane certificates
# ---------------------------------------------------------------------------


def vanishes_on(p: TermPoly, d, rng: random.Random, points: int = 3) -> bool:
    """Reference value of f at random rational points of {d . x = 0}."""
    pivot = next(i for i, e in enumerate(d) if e)
    ratios = []
    for _ in range(points):
        pt = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 9)) for _ in d]
        pt[pivot] = 0
        pt[pivot] = -sum(e * v for e, v in zip(d, pt)) / d[pivot]
        v, scale = p.value(pt)
        ratios.append(abs(v) / scale if scale else Decimal(0))
    if all(r <= ZERO_TOL for r in ratios):
        return True
    need(any(r > NONZERO_TOL for r in ratios), f"reference value on {d} is neither zero nor clearly nonzero")
    return False


def check_hyperplanes(result: dict, p: TermPoly):
    own = candidate_normals(p)
    need(result["degenerate"] == (len(p.u_vectors()) <= 1), "degenerate flag is wrong")
    need([tuple(h["normal"]) for h in result["hyperplanes"]] == own, "candidate normals differ from d - d'")
    need(result["count"] == len(own), "count differs from the candidate list")


def check_classify(result: dict, log, p: TermPoly, planted, reducible: bool, seed: int):
    rng = random.Random(seed)
    certified = [tuple(h["normal"]) for h in result["hyperplanes"]]
    rejected = [tuple(h["normal"]) for h in result["rejected"]]
    need(sorted(certified + rejected) == candidate_normals(p), "certified + rejected is not the candidate family")
    for d in certified:
        need(vanishes_on(p, d, rng), f"certified hyperplane {d} does not vanish")
    for d in rejected:
        need(not vanishes_on(p, d, rng), f"rejected hyperplane {d} vanishes")
    for d in planted:
        need(d in certified, f"planted hyperplane {d} not certified")
    need((result["verdict"] == "HyperplaneComponents") == bool(certified), "verdict disagrees with the certificates")
    status = {h["hypothesis"]: h["status"] for h in log}.get("Z(p) irreducible")
    if reducible:
        need(status != "verified", "a planted product is certified irreducible")
    if result["verdict"] == "IrreducibleSet" and status == "failed":
        return IRREDUCIBLE_AFTER_FAILED_CHECK
    return None


# ---------------------------------------------------------------------------
# Single-exponential slices
# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)(?:/(\d+))?)?\*?(?:x(\d+)(?:\^(\d+))?)?$")


def parse_univariate(text: str) -> list[Fraction]:
    """Dense coefficients of canonical univariate text such as '2*x2^3 - x2 + 5'."""
    dense: list[Fraction] = []
    for piece in text.replace(" - ", " + -").split(" + "):
        neg = piece.startswith("-")
        m = _TERM.match(piece.lstrip("-"))
        need(m is not None and piece.lstrip("-") != "", f"cannot read slice factor {text!r}")
        num, den, var, exp = m.groups()
        c = Fraction(int(num or 1), int(den or 1)) * (-1 if neg else 1)
        e = int(exp or 1) if var else 0
        dense.extend([Fraction(0)] * (e + 1 - len(dense)))
        dense[e] += c
    return dense


def check_classify1e(result: dict, p: TermPoly, slice_factors, slice_zero: bool, seed: int):
    """slice_factors: [(dense coefficients, multiplicity, real roots)], or None."""
    rng = random.Random(seed)
    axis = (1,) + (0,) * (p.n - 1)
    on_axis = vanishes_on(p, axis, rng)
    certified = [tuple(h["normal"]) for h in result["hyperplanes"]]
    need(certified == ([axis] if on_axis else []), "x1 = 0 certificate disagrees with the reference")
    need(result["sliceIdenticallyZero"] == slice_zero, "sliceIdenticallyZero is wrong")
    if slice_factors is not None:
        got = sorted(
            (tuple(parse_univariate(c["factor"])), c["multiplicity"], c["realPoints"])
            for c in result["sliceComponents"] or []
        )
        want = sorted((tuple(f), m, r) for f, m, r in slice_factors)
        need(got == want, "slice factors differ from the planted factor multiset")
    return None


def check_verify_paper(result: dict):
    need(result["total"] == 36 and result["passed"] == 36 and result["failed"] == 0,
         f"verify-paper passed {result['passed']}/{result['total']}")
