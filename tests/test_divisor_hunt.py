"""The oracle's divisor hunt, pruned by the line images it has factored.

The reference in ``util`` is the hunt before pruning: it trial-divides every
small primitive linear form by leading-term division.  The pruned hunt must
reach the same verdict and must check exactly the forms whose restriction to
every factored line divides that line's image, in the same order.  Its check,
``divides_linear``, substitutes the form's zero set and must agree with the
reference division.  A polynomial in one variable v is factored as it is, on
the line v = t, so its verdict and divisor must not depend on the seed.
"""

import random
from fractions import Fraction
from math import gcd

from expalg import classify
from expalg.classify import _allowed_constants, _line_filter, divides_linear, irreducibility_oracle
from expalg.factor import factor_dense
from expalg.parsing import format_poly, parse_poly
from expalg.poly import Poly, var_pos

from util import (
    line_image,
    mono,
    rand_poly,
    reference_irreducibility_oracle,
    reference_linear_candidates,
    reference_trial_divide,
    restriction_divides,
)

HUNT_PRODUCT = "(x1*u2 + 2*x2 + 3)*(x3*u1 + x1 + 5)"


def _record_divisions(monkeypatch):
    """Divisors passed to classify.divides_linear from here on, in call order."""
    calls = []

    def recording(p, d):
        calls.append(d)
        return divides_linear(p, d)

    monkeypatch.setattr(classify, "divides_linear", recording)
    return calls


def _rand_form(rng, n, variables, height):
    """A random affine form on some of ``variables`` with coefficients in [-height, height]."""
    const = rng.choice([c for c in range(-height, height + 1) if c])
    terms = {mono((0,) * n, (0,) * n): Fraction(const)}
    for kind, idx in rng.sample(variables, rng.randint(1, min(3, len(variables)))):
        e = tuple(int(j == idx - 1) for j in range(n))
        m = mono(e, (0,) * n) if kind == "x" else mono((0,) * n, e)
        terms[m] = Fraction(rng.choice([c for c in range(-height, height + 1) if c]))
    return Poly(n, terms)


def _rand_factor(rng, n, variables):
    """A random polynomial of degree 1 or 2 on ``variables``, with a constant term."""
    while True:
        terms = {mono((0,) * n, (0,) * n): Fraction(rng.choice([-3, -1, 1, 2]))}
        for _ in range(rng.randint(2, 4)):
            mono_vars = rng.sample(variables, rng.randint(0, 2))
            x, u = [0] * n, [0] * n
            for kind, idx in mono_vars:
                (x if kind == "x" else u)[idx - 1] += 1
            terms[mono(x, u)] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        q = Poly(n, terms)
        if not q.is_constant():
            return q


def _planted_products(count, seed):
    """Seeded L*Q and Q1*Q2 with n in (2, 3) on 2 to 5 active variables.

    One product on 5 active variables is fixed, with its linear factor early
    in the hunt's order: the unpruned reference would spend about a second
    on each 5-variable product without one.  The bench's product of that
    kind is the subject of ``test_hunt_product_needs_no_trial_division``.
    """
    rng = random.Random(seed)
    out = [parse_poly("(x2 - 2*x3 + 1)*(x1*u1 + u2*x3 - 2)", 3)]
    while len(out) < count:
        n = rng.choice([2, 3])
        variables = [("x", i) for i in range(1, n + 1)] + [("u", i) for i in range(1, n + 1)]
        variables = rng.sample(variables, min(rng.choice([2, 3, 3, 4, 5]), 2 * n))
        if rng.random() < 0.6:
            left = _rand_form(rng, n, variables, rng.choice([2, 2, 3]))
        else:
            left = _rand_factor(rng, n, variables)
        p = left * _rand_factor(rng, n, variables)
        if p.total_degree() >= 2 and len(p.variables_used()) <= 5:
            out.append(p)
    return out


def test_pruned_hunt_matches_unpruned_reference(monkeypatch):
    calls = _record_divisions(monkeypatch)
    statuses = set()
    for k, p in enumerate(_planted_products(16, seed=6)):
        attempts = 1 if k % 3 == 0 else 8
        calls.clear()
        got = irreducibility_oracle(p, attempts=attempts, seed=k)
        want, images = reference_irreducibility_oracle(p, attempts=attempts, seed=k)
        case = (format_poly(p), attempts, k)
        assert (got.status, got.witness, got.factor, got.line) == (
            want.status, want.witness, want.factor, want.line,
        ), case
        statuses.add(got.status)
        if got.status == "Reducible":
            quo = reference_trial_divide(p, got.factor)
            assert quo is not None and quo * got.factor == p, case
        if not want.witness.startswith(("exact division", "no certificate")):
            assert calls == [], case
            continue
        # The hunt divides exactly the forms that divide every image, in
        # order, and stops at the first exact divisor.
        expected = []
        for cand in reference_linear_candidates(p):
            if all(restriction_divides(cand, a, b, image) for a, b, image in images):
                expected.append(cand)
                if cand == want.factor:
                    break
        assert calls == expected, case
    assert statuses == {"Reducible", "Unknown"}


def test_line_filter_matches_exact_division():
    # Lines with many zero and repeated entries make every case of the
    # filter occur: alpha = 0 with beta = 0 or not, a root at t = 0, and
    # roots of either sign.
    rng = random.Random(11)
    entries = [Fraction(v) for v in (-2, -1, 0, 0, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]
    seen = set()
    for _ in range(12):
        n = rng.choice([1, 2])
        p = rand_poly(rng, n, max_terms=3, max_exp=1) * rand_poly(rng, n, max_terms=3, max_exp=1)
        if p.is_constant():
            continue
        a = [rng.choice(entries) for _ in range(2 * n)]
        b = [rng.choice(entries) for _ in range(2 * n)]
        image, A, B, l = line_image(p, a, b)
        if not image:
            continue
        line = _line_filter(A, B, l, factor_dense(image))
        units = [mono(e, (0,) * n) for e in _units(n)] + [mono((0,) * n, e) for e in _units(n)]
        for cand in reference_linear_candidates(p):
            coeffs = [int(cand.terms.get(m, 0)) for m in units]
            const = int(cand.terms.get(mono((0,) * n, (0,) * n), 0))
            want = restriction_divides(cand, a, b, image)
            allowed = _allowed_constants(coeffs, line, range(-2, 3))
            assert (const in allowed) == want, (format_poly(p), a, b, format_poly(cand))
            alpha = sum(c * x for c, x in zip(coeffs, A))
            beta = const * l + sum(c * x for c, x in zip(coeffs, B))
            seen.add((alpha == 0, beta == 0, want))
    assert {(True, True, False), (True, False, True), (False, True, True)} <= seen


def _units(n):
    return [tuple(int(j == i) for j in range(n)) for i in range(n)]


# Deterministic work gates: counts of divisibility checks, not timings.


def test_hunt_product_needs_no_trial_division(monkeypatch):
    calls = _record_divisions(monkeypatch)
    verdict = irreducibility_oracle(parse_poly(HUNT_PRODUCT, 3))
    assert verdict.status == "Unknown"
    assert calls == []


def test_planted_linear_divisor_is_found_with_few_divisions(monkeypatch):
    calls = _record_divisions(monkeypatch)
    p = parse_poly("(x1 + u2 - 1)*(x2 + u3 + 1)", 3)
    verdict = irreducibility_oracle(p)
    assert verdict.status == "Reducible"
    assert format_poly(verdict.factor) == "x2 + u3 + 1"
    assert calls == [verdict.factor]


def test_one_variable_oracle_factors_one_image(monkeypatch):
    # p in one variable v is factored once, as its image on the line v = t,
    # and no divisor hunt follows.
    calls = []

    def counting(image):
        calls.append(len(image) - 1)
        return factor_dense(image)

    monkeypatch.setattr(classify, "factor_dense", counting)
    for text, n in [("x1^30 - 1", 1), ("u2^4 - 4", 2), ("(x1^2 + 1)^3*(3*x1 - 1)", 1)]:
        p = parse_poly(text, n)
        calls.clear()
        verdict = irreducibility_oracle(p)
        assert verdict.status == "Reducible" and calls == [p.total_degree()], text
        quo = reference_trial_divide(p, verdict.factor)
        assert quo is not None and not quo.is_constant() and quo * verdict.factor == p, text
        assert verdict.factor.variables_used() == p.variables_used()


def _rand_linear(rng, n, kinds="xu"):
    """A random affine form with rational coefficients on 1 to 3 variables
    of the given kinds; the constant term is 0 about a third of the time."""
    variables = [(k, i) for k in kinds for i in range(1, n + 1)]
    scale = [Fraction(c) for c in (-3, -2, -1, 1, 2, 3)] + [Fraction(-1, 2), Fraction(2, 3)]
    terms = {}
    for kind, idx in rng.sample(variables, rng.randint(1, min(3, len(variables)))):
        terms[Poly.var(n, kind, idx).leading_term()[0]] = rng.choice(scale)
    if rng.random() < 0.67:
        terms[(0,) * (2 * n)] = rng.choice(scale)
    return Poly(n, terms)


def test_divides_linear_matches_leading_term_division():
    rng = random.Random(29)
    seen = dict.fromkeys(
        ("divides", "does not divide", "u pivot", "negative pivot", "non-unit pivot", "zero constant"), 0
    )
    for _ in range(240):
        n = rng.choice([1, 2, 3])
        form = _rand_linear(rng, n, rng.choice(["xu", "xu", "u"]))
        q = rand_poly(rng, n)
        if q.is_zero():
            continue
        roll = rng.random()
        if roll < 0.45:
            p = form * q
        elif roll < 0.7:
            p = form * q + Poly.const(n, rng.choice([1, -2, Fraction(1, 3)]))  # a near miss
        else:
            p = rand_poly(rng, n)
        got = divides_linear(p, form)
        want = reference_trial_divide(p, form) is not None
        assert got == want, (format_poly(p), format_poly(form))
        # The pivot is the form's first variable in (x1..xn, u1..un) order.
        pivot = max(m for m in form.terms if any(m))
        c_v = form.terms[pivot]
        seen["divides" if want else "does not divide"] += 1
        seen["u pivot"] += not any(pivot[:n])
        seen["negative pivot"] += c_v < 0
        seen["non-unit pivot"] += abs(c_v) != 1
        seen["zero constant"] += (0,) * (2 * n) not in form.terms
    assert all(seen.values()), seen


ONE_VARIABLE_WITNESS = "a factor of a full-degree line image, mapped back through the line (one variable)"
LINE_WITNESS = "full-degree line specialization with irreducible image"


def _one_variable_product(rng):
    """(p, divisor): a seeded product in one variable v, x or u, at ambient
    1 to 3, of 2 or 3 distinct primitive linear factors a v + b (b != 0,
    so p has no monomial content), one of them squared at times, times
    v^2 + c at times, scaled by a rational.  divisor is the first factor of
    lowest degree in factor_dense order, by (degree, coefficients)."""
    n = rng.randint(1, 3)
    kind, idx = rng.choice("xu"), rng.randint(1, n)
    count, forms = rng.choice([2, 2, 3]), set()
    while len(forms) < count:
        a, b = rng.randint(1, 4), rng.choice([-3, -2, -1, 1, 2, 3])
        if gcd(a, b) == 1:
            forms.add((b, a))
    v = Poly.var(n, kind, idx)
    p = Poly.const(n, rng.choice([1, -1, Fraction(3, 2), Fraction(-2, 5)]))
    for k, (b, a) in enumerate(sorted(forms)):
        p = p * (v.scale(a) + Poly.const(n, b)) ** (2 if k == 1 and rng.random() < 0.3 else 1)
    if rng.random() < 0.4:
        p = p * (v * v + Poly.const(n, rng.randint(1, 3)))
    b, a = min(forms)
    return p, v.scale(a) + Poly.const(n, b)


def test_one_variable_verdict_is_the_same_at_every_seed():
    rng = random.Random(41)
    for _ in range(20):
        p, divisor = _one_variable_product(rng)
        for seed in range(6):
            verdict = irreducibility_oracle(p, seed=seed)
            case = (format_poly(p), seed)
            assert verdict.status == "Reducible" and verdict.witness == ONE_VARIABLE_WITNESS, case
            assert verdict.factor == divisor and verdict.line is None, case
    # Irreducible p record the line v = t: a is v's unit vector, b is 0.
    for text, n, kind, idx in [("x1^2 + 2", 1, "x", 1), ("3*u2^3 - 4", 2, "u", 2), ("x3^4 + 1", 3, "x", 3)]:
        p = parse_poly(text, n)
        a = tuple(Fraction(j == var_pos(n, kind, idx)) for j in range(2 * n))
        for seed in range(6):
            verdict = irreducibility_oracle(p, seed=seed)
            assert (verdict.status, verdict.witness) == ("Irreducible", LINE_WITNESS), (text, seed)
            assert verdict.line == (a, (Fraction(0),) * (2 * n)), (text, seed)
