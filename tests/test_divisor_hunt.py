"""The oracle's divisor hunt, pruned by the line images it has factored.

The reference in ``util`` is the hunt before pruning: it trial-divides every
small primitive linear form.  The pruned hunt must reach the same verdict and
must trial-divide exactly the forms whose restriction to every factored line
divides that line's image, in the same order.
"""

import random
from fractions import Fraction

from expalg import classify
from expalg.classify import _allowed_constants, _line_filter, irreducibility_oracle, trial_divide
from expalg.factor import factor_dense
from expalg.parsing import format_poly, parse_poly
from expalg.poly import Poly

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
    """Divisors passed to classify.trial_divide from here on, in call order."""
    calls = []

    def recording(p, d):
        calls.append(d)
        return trial_divide(p, d)

    monkeypatch.setattr(classify, "trial_divide", recording)
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
            quo = trial_divide(p, got.factor)
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


# Deterministic work gates: counts of trial divisions, not timings.


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


def test_trial_divide_long_exact_quotient():
    p, d = parse_poly("x1^22 - 1", 1), parse_poly("x1 - 1", 1)
    quo = trial_divide(p, d)
    assert quo == Poly(1, {mono((k,), (0,)): 1 for k in range(22)})
    assert len(quo.terms) == 22
    # The old division gave up after len(p) * (len(d) + 1) + 16 = 22 steps.
    assert reference_trial_divide(p, d) is None


def test_trial_divide_matches_old_division():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.choice([1, 2, 3])
        d = rand_poly(rng, n, max_terms=3)
        if d.is_zero():
            continue
        p = rand_poly(rng, n) * d if rng.random() < 0.5 else rand_poly(rng, n)
        got, want = trial_divide(p, d), reference_trial_divide(p, d)
        if want is not None:
            assert got == want and list(got.terms) == list(want.terms)
        elif got is not None:
            assert got * d == p  # exact, beyond the old step guard


def test_one_variable_oracle_factors_one_image(monkeypatch):
    # A full-degree line image of p in one variable factors exactly as p,
    # so the first image decides and no divisor hunt follows.
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
        quo = trial_divide(p, verdict.factor)
        assert quo is not None and not quo.is_constant() and quo * verdict.factor == p, text
        assert verdict.factor.variables_used() == p.variables_used()
