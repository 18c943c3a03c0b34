"""Classification drivers and the irreducibility oracle."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from expalg.classify import (
    CertifiedHyperplane,
    HypothesisCheck,
    IrredVerdict,
    _verdict,
    classify_codim1,
    classify_single_exp,
    irreducibility_oracle,
)
from expalg.epoly import EPoly
from expalg.errors import DriverError, HypothesisViolation
from expalg.factor import factor_dense
from expalg.hyperplanes import Hyperplane
from expalg.intervals import Interval
from expalg.numeric import RootCert, sign_at_rational
from expalg.parsing import format_poly, parse_poly

from util import line_image, reference_trial_divide


UMBRELLA = "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
SHIFTED_CIRCLE = "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2"


def test_oracle_linear_is_irreducible():
    v = irreducibility_oracle(parse_poly("2*x1 - u1 + 1"))
    assert v.status == "Irreducible"


def test_oracle_axes_polynomial_irreducible_with_recheckable_witness():
    p = parse_poly("x1*u2 + x2*u1 - x1 - x2")
    v = irreducibility_oracle(p)
    assert v.status == "Irreducible" and v.line is not None
    a, b = v.line
    image, _, _, _ = line_image(p, list(a), list(b))
    assert len(image) - 1 == p.total_degree()
    factors = factor_dense(image)
    nontrivial = [(f, m) for f, m in factors if len(f) > 1]
    assert len(nontrivial) == 1 and nontrivial[0][1] == 1


def test_oracle_difference_of_squares_reducible_with_exact_divisor():
    p = parse_poly("x1^2 - u1^2")
    v = irreducibility_oracle(p)
    assert v.status == "Reducible" and v.factor is not None
    quo = reference_trial_divide(p, v.factor)
    assert quo is not None and quo * v.factor == p


def test_oracle_detects_common_variable_and_powers():
    v = irreducibility_oracle(parse_poly("x1*u1 + x1^2"))
    assert v.status == "Reducible" and format_poly(v.factor) == "x1"
    square = parse_poly("x1^2 + 2*x1*u1 + u1^2")  # (x1 + u1)^2
    v = irreducibility_oracle(square)
    assert v.status == "Reducible" and v.factor * v.factor == square
    v = irreducibility_oracle(parse_poly("x1^2*u2"))
    assert v.status == "Reducible"


def test_oracle_rejects_constants():
    with pytest.raises(HypothesisViolation):
        irreducibility_oracle(parse_poly("5"))


def test_classify_axes_pair():
    rep = classify_codim1(parse_poly("x1*u2 + x2*u1 - x1 - x2"))
    assert rep.verdict == "HyperplaneComponents"
    assert [c.hyperplane.normal for c in rep.hyperplanes] == [(0, 1), (1, 0)]
    assert [c.hyperplane.normal for c in rep.rejected] == [(1, -1)]
    assert rep.conditionality == "ConditionalOnSchanuel"
    statuses = {h.name: h.status for h in rep.hypothesis_log}
    assert statuses["Z(p) irreducible"] == "verified"
    assert statuses["dim Z(f) = n-1"] == "verified"


# dim Z(f) = n-1 in two variables: verified by a certified sign change, whose
# two points the detail quotes, and unverified where f may be sign-definite.
# The degenerate inputs (no exponential) go through the same check.
CODIM1_2D = [
    (classify_codim1, "x1*u2 + x2*u1 - x1 - x2", "verified"),
    (classify_codim1, "x1^2 + x2^2 - u1 - 1", "verified"),
    (classify_codim1, "x1*u2 - x2*u1 + 3", "verified"),
    (classify_codim1, "(x1 - x2)*3 + (u1 - u2)*(5*u2 + 1)", "verified"),
    (classify_codim1, "x1 + x2", "verified"),
    (classify_single_exp, UMBRELLA, "verified"),
    (classify_codim1, "(x1 - u2)^2 + (x2 - 1)^2", "unverified"),
    (classify_codim1, SHIFTED_CIRCLE, "unverified"),
    (classify_single_exp, SHIFTED_CIRCLE, "unverified"),
    (classify_codim1, "x1^2 + x2^2 + 1", "unverified"),
]


@pytest.mark.parametrize("driver, text, status", CODIM1_2D)
def test_codim1_status_in_two_variables(driver, text, status):
    p = parse_poly(text, 2)
    [check] = [h for h in driver(p).hypothesis_log if h.name == "dim Z(f) = n-1"]
    assert check.status == status
    points = re.findall(r"f\(([^)]*)\)", check.detail)
    if status == "unverified":
        assert points == [] and "sign-definite" in check.detail
        return
    f = EPoly.from_poly(p)
    a, b = ([Fraction(c) for c in pt.split(", ")] for pt in points)
    assert sign_at_rational(f, a) == -1 and sign_at_rational(f, b) == 1
    assert all(abs(c) <= 8 for c in a + b)


def test_certified_hyperplanes_vanish_numerically_and_come_from_candidates():
    from expalg.epoly import EPoly
    from expalg.hyperplanes import candidate_hyperplanes
    from util import embed_on_hyperplane

    rng = random.Random(81)
    for text in ["x1*u2 + x2*u1 - x1 - x2", UMBRELLA, "x1*u1 - x1*u2"]:
        p = parse_poly(text, ambient=2)
        f = EPoly.from_poly(p)
        rep = classify_codim1(p)
        candidates = set(candidate_hyperplanes(p))
        for cert in rep.hyperplanes:
            assert cert.hyperplane in candidates  # nothing outside the family
            assert f.restrict(cert.hyperplane).is_zero()
            for _ in range(50):
                xs = [rng.uniform(-3.0, 3.0)]
                point = embed_on_hyperplane(cert.hyperplane.normal, xs)
                if all(abs(v) <= 3.0 for v in point):
                    assert abs(f.eval_float(point)) <= 1e-9


def test_classify_two_point_line():
    rep = classify_codim1(parse_poly("2*x1 - u1 + 1"))
    assert rep.verdict == "IrreducibleSet"
    assert rep.conditionality == "Unconditional"
    assert rep.roots is not None and len(rep.roots) == 2
    assert rep.hyperplanes == []


def test_classify_umbrella_single_exponential():
    rep = classify_codim1(parse_poly(UMBRELLA))
    assert rep.verdict == "HyperplaneComponents"
    assert [c.hyperplane.normal for c in rep.hyperplanes] == [(1, 0)]
    assert rep.conditionality == "Unconditional"


def _refuted_irreducibility(rep):
    return [h for h in rep.hypothesis_log if h.name == "Z(p) irreducible" and h.status == "failed"]


def test_classify_refuted_irreducibility_is_inconclusive():
    # Both inputs are reducible and have no certified hyperplane.
    for text, ambient in [("(x1 + u2 - 1)*(x2 + u3 + 1)", 3), ("(x1 + u1 + x2 + u2)^2 - 1", None)]:
        p = parse_poly(text, ambient)
        rep = classify_codim1(p)
        assert _refuted_irreducibility(rep), text
        assert rep.hyperplanes == []
        assert rep.verdict == "Inconclusive", text
        assert rep.residual.startswith("Z(p) is reducible over Q"), rep.residual
        divisor = rep.residual.split("divisor ")[1].split(")")[0]
        assert reference_trial_divide(p, parse_poly(divisor, p.n)) is not None
        assert rep.conditionality == "ConditionalOnAssertedHypotheses"


def test_single_exp_refuted_irreducibility_is_inconclusive():
    # Slice in two variables (not decomposed) and x1 = 0 is no component.
    rep = classify_single_exp(parse_poly("(x2 + x3 + u1)*(x2 - x3 + u1 + 1)"))
    assert _refuted_irreducibility(rep)
    assert rep.hyperplanes == [] and rep.slice_components is None
    assert rep.verdict == "Inconclusive"
    assert "divisor x2 - x3 + u1 + 1" in rep.residual


def test_classify_asserted_flags_downgrade_conditionality():
    rep = classify_codim1(
        parse_poly("x1*u2 + x2*u1 - x1 - x2"),
        assume_irreducible=True,
        assume_codim1=True,
    )
    assert rep.conditionality == "ConditionalOnAssertedHypotheses"
    assert all(h.status == "asserted" for h in rep.hypothesis_log)
    # certificates themselves are unaffected
    assert [c.hyperplane.normal for c in rep.hyperplanes] == [(0, 1), (1, 0)]


def test_classify_degenerate_single_u_monomial():
    rep = classify_codim1(parse_poly("x1*u1"))
    assert rep.degenerate
    assert rep.verdict == "IrreducibleSet"
    assert rep.conditionality == "Unconditional"
    assert any("never vanishes" in note for note in rep.notes)

    rep = classify_codim1(parse_poly("u1"))
    assert rep.degenerate and rep.verdict == "Inconclusive"
    assert "empty" in rep.residual


def test_classify_purely_algebraic_input():
    rep = classify_codim1(parse_poly("x1 + x2"))
    assert rep.degenerate
    assert rep.verdict == "IrreducibleSet"
    assert rep.conditionality == "Unconditional"


def test_classify_certified_hyperplane_from_constructed_product():
    # (u1 - u2) * x1 vanishes on x1 = x2 after expansion.
    rep = classify_codim1(parse_poly("x1*u1 - x1*u2"))
    assert any(c.hyperplane.normal == (1, -1) for c in rep.hyperplanes)
    statuses = {h.name: h.status for h in rep.hypothesis_log}
    assert statuses["Z(p) irreducible"] == "failed"
    assert rep.conditionality == "ConditionalOnAssertedHypotheses"


def test_classify_rejects_zero_polynomial():
    with pytest.raises(HypothesisViolation):
        classify_codim1(parse_poly("0"))


def test_classify_reports_are_deterministic():
    a = classify_codim1(parse_poly("x1*u2 + x2*u1 - x1 - x2"), seed=0)
    b = classify_codim1(parse_poly("x1*u2 + x2*u1 - x1 - x2"), seed=0)
    assert a == b


def test_single_exp_shifted_circle_components():
    rep = classify_single_exp(parse_poly(SHIFTED_CIRCLE))
    assert rep.slice_identically_zero is False
    comps = [
        (format_poly(sc.factor), sc.multiplicity)
        for sc in rep.slice_components
        if sc.real_points
    ]
    assert sorted(comps) == [("x2 + 1", 2), ("x2 - 1", 2)]
    assert rep.hyperplanes == []
    # The driver always logs its dimension bound as asserted.
    assert rep.conditionality == "ConditionalOnAssertedHypotheses"


def test_single_exp_umbrella_slice_vanishes():
    rep = classify_single_exp(parse_poly(UMBRELLA))
    assert rep.verdict == "HyperplaneComponents"
    assert [c.hyperplane.normal for c in rep.hyperplanes] == [(1, 0)]
    assert rep.slice_identically_zero is True


def test_single_exp_line_reports_roots():
    rep = classify_single_exp(parse_poly("2*x1 - u1 + 1"))
    assert rep.verdict == "IrreducibleSet"
    assert rep.roots is not None and len(rep.roots) == 2


def test_single_exp_rejects_multi_exponential_input():
    with pytest.raises(DriverError):
        classify_single_exp(parse_poly("x1*u2 + x2*u1 - x1 - x2"))


# Every combination of the inputs _verdict reads.  The expected outcome is
# the rule written out once more, in its order: n = 1 first, then certified
# hyperplanes, real slice components, a refuted premise, an unestablished
# premise, and IrreducibleSet last.
PREMISES = ["verified", "asserted", "unverified", "failed", None]
OTHER_HYPOTHESES = [None, "verified", "asserted", "unverified"]
ROOT = RootCert(Interval(0.0, 0.0), "NewtonContraction", 0.0)
PLANE = CertifiedHyperplane(Hyperplane((1, 0)), "restriction vanishes")
DIVISOR = parse_poly("x1 + u2 - 1", 3)
REFUTED = IrredVerdict("Reducible", witness="planted witness", factor=DIVISOR)


def _expected(n, premise, certified, slice_real, roots):
    """(verdict, a phrase of the residual) of the first rule that applies."""
    established = premise in ("verified", "asserted")
    if n == 1:
        if established and roots:
            return "IrreducibleSet", "finite set of certified roots"
        return "Inconclusive", "one-variable argument"
    if certified:
        return "HyperplaneComponents", "minus the listed hyperplanes"
    if slice_real:
        return "Inconclusive", "through the listed slice components"
    if premise == "failed":
        # A refuted premise is quoted with the oracle's witness and divisor.
        return "Inconclusive", "reducible over Q (planted witness; divisor x1 + u2 - 1)"
    if not established:
        return "Inconclusive", "neither verified nor asserted"
    return "IrreducibleSet", "no codimension-1 decomposition"


@pytest.mark.parametrize("premise_name", ["Z(p) irreducible", "x-part irreducible"])
def test_verdict_rule_table(premise_name):
    rows = product(
        [1, 2], PREMISES, [False, True], [False, True], [None, [], [ROOT]],
        OTHER_HYPOTHESES, ["Unconditional", "ConditionalOnSchanuel"],
    )
    for n, premise, certified, slice_real, roots, other, base in rows:
        log = []
        if other is not None:
            log.append(HypothesisCheck("dim Z(f) = n-1", other))
        if premise is not None:
            log.append(HypothesisCheck(premise_name, premise))
        oracle = REFUTED if premise == "failed" else None
        verdict, conditionality, residual = _verdict(
            base, log, oracle, n, roots, [PLANE] if certified else [],
            slice_real=slice_real, premise=premise_name,
        )
        case = (n, premise, certified, slice_real, roots, other, base)
        expected_verdict, phrase = _expected(n, premise, certified, slice_real, roots)
        assert verdict == expected_verdict, case
        assert phrase in residual, case
        weak = {premise, other} & {"asserted", "unverified", "failed"}
        expected_label = "ConditionalOnAssertedHypotheses" if weak else base
        assert conditionality == expected_label, case


def test_verdict_reads_only_the_named_premise():
    # A verified hypothesis under another name does not establish the premise.
    log = [HypothesisCheck("x-part irreducible", "verified")]
    verdict, conditionality, _ = _verdict("Unconditional", log, None, 2, None, [])
    assert (verdict, conditionality) == ("Inconclusive", "Unconditional")
    verdict, _, _ = _verdict(
        "Unconditional", log, None, 2, None, [], premise="x-part irreducible"
    )
    assert verdict == "IrreducibleSet"


def test_reducible_x_part_quotes_its_divisor():
    rep = classify_codim1(parse_poly("(x1 - 1)*(x2 - 2)*u1"))
    assert rep.degenerate and rep.verdict == "Inconclusive"
    statuses = {h.name: h.status for h in rep.hypothesis_log}
    assert statuses["x-part irreducible"] == "failed"
    divisor = parse_poly(rep.residual.split("divisor ")[1].split(")")[0], 2)
    assert reference_trial_divide(parse_poly("(x1 - 1)*(x2 - 2)", 2), divisor) is not None


def test_single_exp_constant_is_inconclusive():
    # No irreducibility premise is ever logged for a constant.
    rep = classify_single_exp(parse_poly("3", 2))
    assert rep.verdict == "Inconclusive"
    assert "Z(p) irreducible" not in {h.name for h in rep.hypothesis_log}


def test_one_variable_residual_names_the_argument_that_applies():
    # An algebraic x-part: its roots are algebraic and conjugate over Q.
    rep = classify_codim1(parse_poly("x1^2 - 2"))
    assert rep.degenerate and rep.verdict == "IrreducibleSet" and len(rep.roots) == 2
    assert rep.residual == (
        "the zero set is the finite set of certified roots, which are algebraic; "
        "the x-part is irreducible over Q, so a polynomial over Q that vanishes "
        "at one root vanishes at all of them"
    )
    # With an exponential the single root ln 2 is transcendental.
    rep = classify_codim1(parse_poly("u1 - 2"))
    assert not rep.degenerate and rep.verdict == "IrreducibleSet" and len(rep.roots) == 1
    assert rep.residual == (
        "the zero set is the finite set of certified roots; splitting off any "
        "single transcendental point would need a defining equation over Q, "
        "which Lindemann-type independence rules out"
    )
