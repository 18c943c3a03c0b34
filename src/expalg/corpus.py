"""Embedded verification corpus: worked examples with known outcomes.

Each entry checks one documented behaviour end to end (parse, symbolic
certificates, classification verdicts, certified numerics) against expected
values that were derived independently: hand expansion and substitution for
the symbolic identities, exact signs on a rational grid for root counts, and
direct gradient computation for the transversality margins.

``run_all`` returns one record per check; the CLI surfaces them through the
``verify-paper`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .classify import (
    classify_codim1,
    classify_single_exp,
    divides_linear,
    irreducibility_oracle,
)
from .epoly import EPoly
from .errors import HypothesisViolation
from .hyperplanes import Hyperplane, candidate_hyperplanes
from .numeric import (
    check_transversality,
    interval_eval,
    isolate_roots_1d,
    sample_zero_cells_2d,
    sign_at_rational,
)
from .parsing import format_epoly, format_poly, parse_epoly, parse_poly

# Input texts for the worked examples.
TWO_POINT_LINE = "2*x1 - u1 + 1"  # zero set of the expansion: two points
AXES_PAIR = "x1*u2 + x2*u1 - x1 - x2"  # zero set: the two coordinate axes
CARTAN_UMBRELLA = "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
SHIFTED_CIRCLE = "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2"  # lifted unit circle, squared


@dataclass(frozen=True)
class CorpusCheck:
    name: str
    passed: bool
    detail: str


def _check(name: str, condition: bool, detail: str = "") -> CorpusCheck:
    return CorpusCheck(name, bool(condition), detail)


def _cell_distance_ok(cells, width: float, distance) -> tuple[bool, str]:
    worst = 0.0
    for cell in cells:
        d = distance(cell)
        worst = max(worst, d)
        if d > 2 * width + 1e-12:
            return False, f"cell at distance {d:.4f} > 2 * {width:.6f}"
    return True, f"{len(cells)} cells, max distance {worst:.4f} <= 2 cell-widths"


def run_all() -> list[CorpusCheck]:
    checks: list[CorpusCheck] = []
    out = checks.append

    # --- canonical expansion ------------------------------------------------
    f_line = parse_epoly("2*x1 + 1 - exp(x1)")
    out(
        _check(
            "expand/two-point-line",
            format_epoly(f_line) == "(2*x1 + 1) + (-1)*exp(x1)",
            format_epoly(f_line),
        )
    )
    p_axes = parse_poly(AXES_PAIR)
    f_axes = EPoly.from_poly(p_axes)
    out(
        _check(
            "expand/axes-pair",
            format_epoly(f_axes) == "(-x1 - x2) + (x1)*exp(x2) + (x2)*exp(x1)",
            format_epoly(f_axes),
        )
    )
    out(
        _check(
            "expand/sugar-agrees",
            parse_epoly(AXES_PAIR) == parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2"),
        )
    )

    # --- exact evaluation ----------------------------------------------------
    p_line = parse_poly(TWO_POINT_LINE)
    out(
        _check(
            "eval/line-at-lifted-origin",
            p_line.eval([Fraction(0), Fraction(1)]) == 0,
            "p(0, 1) = 0: the origin lifts onto the line",
        )
    )
    out(
        _check(
            "eval/axes-at-sample-point",
            p_axes.eval([Fraction(1), Fraction(1), Fraction(2), Fraction(3)]) == 3,
            "p(1,1,2,3) = 3",
        )
    )

    # --- substitution and derivative -----------------------------------------
    p_umb = parse_poly(CARTAN_UMBRELLA)
    sliced = p_umb.substitute_value("x", 1, 0)
    out(
        _check(
            "substitute/umbrella-x1-zero",
            sliced == parse_poly("x2^2*u1 - x2^2", ambient=2),
            "p(0, x2, u1) = x2^2*(u1 - 1)",
        )
    )
    d1 = p_umb.derivative("x", 1)
    out(
        _check(
            "derivative/umbrella-on-line",
            d1.eval([Fraction(0), Fraction(0), Fraction(1), Fraction(1)]) == 0,
            "d p/d x1 vanishes at (0, 0, 1)",
        )
    )

    # --- candidate hyperplanes -------------------------------------------------
    cand_axes = candidate_hyperplanes(p_axes)
    out(
        _check(
            "candidates/axes-pair",
            [h.normal for h in cand_axes] == [(0, 1), (1, -1), (1, 0)],
            str([h.normal for h in cand_axes]),
        )
    )
    cand_umb = candidate_hyperplanes(p_umb)
    out(
        _check(
            "candidates/umbrella",
            [h.normal for h in cand_umb] == [(1, 0)],
            str([h.normal for h in cand_umb]),
        )
    )
    cand_single = candidate_hyperplanes(parse_poly("u1*u2"))
    out(
        _check(
            "candidates/single-monomial-degenerate",
            not cand_single,
        )
    )

    # --- hyperplane restriction ---------------------------------------------
    out(
        _check(
            "restrict/axes-x1-vanishes",
            f_axes.restrict(Hyperplane((1, 0))).is_zero(),
        )
    )
    out(
        _check(
            "restrict/axes-x2-vanishes",
            f_axes.restrict(Hyperplane((0, 1))).is_zero(),
        )
    )
    diag = f_axes.restrict(Hyperplane((1, -1)))
    expected_diag = parse_epoly("2*x1*exp(x1) - 2*x1", ambient=1)
    out(
        _check(
            "restrict/axes-diagonal-nonzero",
            (not diag.is_zero()) and diag == expected_diag,
            format_epoly(diag),
        )
    )
    f_umb = EPoly.from_poly(p_umb)
    out(
        _check(
            "restrict/umbrella-x1-vanishes",
            f_umb.restrict(Hyperplane((1, 0))).is_zero(),
        )
    )

    # --- ring homomorphism and faithfulness ------------------------------------
    prod = EPoly.from_poly(p_axes * p_umb)
    out(
        _check(
            "ring/expansion-multiplicative",
            prod == f_axes * f_umb,
        )
    )
    out(
        _check(
            "ring/expansion-faithful",
            EPoly.from_poly(p_axes - p_axes).is_zero()
            and not EPoly.from_poly(p_axes - p_umb).is_zero(),
        )
    )

    # --- irreducibility oracle ---------------------------------------------------
    verdict = irreducibility_oracle(p_axes)
    out(
        _check(
            "oracle/axes-irreducible",
            verdict.status == "Irreducible",
            verdict.witness,
        )
    )
    square_diff = parse_poly("x1^2 - u1^2")
    verdict = irreducibility_oracle(square_diff)
    witness_divides = verdict.factor is not None and divides_linear(square_diff, verdict.factor)
    out(
        _check(
            "oracle/difference-of-squares-reducible",
            verdict.status == "Reducible" and witness_divides,
            f"{verdict.witness}",
        )
    )

    # --- classification -----------------------------------------------------------
    rep = classify_codim1(p_axes)
    out(
        _check(
            "classify/axes-two-hyperplanes",
            rep.verdict == "HyperplaneComponents"
            and [c.hyperplane.normal for c in rep.hyperplanes] == [(0, 1), (1, 0)]
            and [c.hyperplane.normal for c in rep.rejected] == [(1, -1)]
            and rep.conditionality == "ConditionalOnSchanuel",
            f"{rep.verdict}, {rep.conditionality}",
        )
    )
    rep = classify_codim1(p_line)
    out(
        _check(
            "classify/line-irreducible-unconditional",
            rep.verdict == "IrreducibleSet"
            and rep.conditionality == "Unconditional"
            and rep.roots is not None
            and len(rep.roots) == 2,
            f"{rep.verdict}, {rep.conditionality}, {len(rep.roots or [])} roots",
        )
    )
    rep = classify_codim1(p_umb)
    out(
        _check(
            "classify/umbrella-hyperplane-unconditional",
            rep.verdict == "HyperplaneComponents"
            and [c.hyperplane.normal for c in rep.hyperplanes] == [(1, 0)]
            and rep.conditionality == "Unconditional",
            f"{rep.verdict}, {rep.conditionality}",
        )
    )

    # --- single-exponential driver -------------------------------------------------
    p_circ = parse_poly(SHIFTED_CIRCLE)
    rep = classify_single_exp(p_circ)
    comps = [sc for sc in (rep.slice_components or []) if sc.real_points]
    comp_strs = sorted(
        "{} (mult {})".format(format_poly(sc.factor), sc.multiplicity) for sc in comps
    )
    out(
        _check(
            "classify1e/circle-two-point-components",
            comp_strs == ["x2 + 1 (mult 2)", "x2 - 1 (mult 2)"],
            "; ".join(comp_strs),
        )
    )
    rep = classify_single_exp(p_umb)
    out(
        _check(
            "classify1e/umbrella-line-and-zero-slice",
            rep.verdict == "HyperplaneComponents"
            and [c.hyperplane.normal for c in rep.hyperplanes] == [(1, 0)]
            and rep.slice_identically_zero is True,
            f"{rep.verdict}, slice vanishes: {rep.slice_identically_zero}",
        )
    )

    # --- certified roots --------------------------------------------------------------
    # The roots of f_line also serve the umbrella cells and the transversality checks.
    line_certs, leftovers = isolate_roots_1d(f_line, (-5.0, 5.0), 1e-9)
    # Exact signs at k/8 on [-5, 5]: each zero and each strict sign change is
    # one root.  f'' = -e^x < 0 allows at most two, so two counted are all.
    scan = 0
    prev = 0
    for k in range(-40, 41):
        s = sign_at_rational(f_line, [Fraction(k, 8)])
        scan += s == 0 or prev * s < 0
        prev = s
    zero_ok = any(
        c.enclosure.contains(0.0) and c.enclosure.width == 0.0 for c in line_certs
    )
    star_ok = any(
        1.25 <= c.enclosure.lo and c.enclosure.hi <= 1.26 and c.enclosure.width <= 1e-9
        for c in line_certs
    )
    out(
        _check(
            "roots/two-point-line",
            len(line_certs) == 2 and not leftovers and zero_ok and star_ok and scan == 2,
            f"{len(line_certs)} certified, scan count {scan}",
        )
    )
    certs, _ = isolate_roots_1d(parse_epoly("exp(x1) - 1"), (-2.0, 2.0), 1e-9)
    out(_check("roots/exp-minus-one", len(certs) == 1 and certs[0].enclosure.contains(0.0)))
    certs, leftovers = isolate_roots_1d(parse_epoly("exp(x1) + 1"), (-10.0, 10.0), 1e-9)
    out(_check("roots/exp-plus-one-rootless", not certs and not leftovers))

    # --- interval evaluation -----------------------------------------------------------
    iv = interval_eval(f_line, [(0.0, 0.0)], rigorous=True)
    out(
        _check(
            "interval/line-exact-zero-rigorous",
            iv.contains(0.0) and iv.width <= 1e-15,
            f"width {iv.width:g}",
        )
    )
    iv = interval_eval(parse_epoly("exp(x1)"), [(0.0, 1.0)])
    out(
        _check(
            "interval/exp-enclosure",
            iv.lo <= 1.0 and iv.hi >= 2.7182818,
            f"[{iv.lo}, {iv.hi}]",
        )
    )
    iv = interval_eval(f_axes, [(0.9, 1.1), (0.9, 1.1)])
    out(
        _check(
            "interval/axes-off-zero-box",
            iv.excludes_zero(),
            f"[{iv.lo:.4f}, {iv.hi:.4f}]",
        )
    )

    # --- zero-cell sampling --------------------------------------------------------------
    box = [(-2.0, 2.0), (-2.0, 2.0)]
    width = 4.0 / 2**8
    cells = sample_zero_cells_2d(f_axes, box, 8)

    def dist_axes(cell):
        (x_lo, x_hi), (y_lo, y_hi) = cell
        return min(max(0.0, x_lo, -x_hi), max(0.0, y_lo, -y_hi))

    ok, detail = _cell_distance_ok(cells, width, dist_axes)
    out(_check("cells/axes-hug-the-axes", ok, detail))

    star_root = next(c for c in line_certs if c.enclosure.lo > 0)
    star = star_root.enclosure
    cells = sample_zero_cells_2d(f_umb, box, 8)

    def dist_umbrella(cell):
        (x_lo, x_hi), (y_lo, y_hi) = cell
        d_line = max(0.0, x_lo, -x_hi)
        px = max(0.0, x_lo - star.hi, star.lo - x_hi)
        py = max(0.0, y_lo, -y_hi)
        return min(d_line, math.hypot(px, py))

    ok, detail = _cell_distance_ok(cells, width, dist_umbrella)
    out(_check("cells/umbrella-line-plus-point", ok, detail))

    never_zero = parse_epoly("exp(x1)*exp(x2)", ambient=2)
    cells = sample_zero_cells_2d(never_zero, [(0.0, 1.0), (0.0, 1.0)], 3)
    out(_check("cells/positive-function-empty", cells == []))

    # --- transversality -------------------------------------------------------------------
    zero_root = next(c for c in line_certs if c.enclosure.contains(0.0))
    rep = check_transversality(p_line, star_root, (), 1e-6)
    out(
        _check(
            "transversal/line-at-nonzero-root",
            rep.verdict == "Transverse" and abs(rep.tangency_margin - 1.5128624) < 1e-4,
            f"margin {rep.tangency_margin:.7f}",
        )
    )
    p_stick = parse_poly(TWO_POINT_LINE, ambient=2)
    rep = check_transversality(p_stick, star_root, (Fraction(0),), 1e-6)
    out(
        _check(
            "transversal/umbrella-stick-at-lifted-point",
            rep.verdict == "Transverse" and rep.tangency_margin > 1e-6,
            f"margin {rep.tangency_margin:.7f}",
        )
    )
    rep = check_transversality(p_umb, star_root, (Fraction(0),), 1e-6)
    out(
        _check(
            "transversal/umbrella-gradient-degenerate",
            rep.verdict == "Undetermined",
            "the full umbrella gradient vanishes at the lifted point",
        )
    )
    try:
        check_transversality(p_line, zero_root, (), 1e-6)
        out(_check("transversal/zero-root-rejected", False, "no exception raised"))
    except HypothesisViolation:
        out(_check("transversal/zero-root-rejected", True))

    return checks
