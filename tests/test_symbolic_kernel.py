"""The symbolic layer's two merge and search kernels against references.

``classify._linear_candidates`` enumerates only the coefficient vectors c of
the divisor hunt's forms c.v + c0 and solves each factored line for the
constants c0 it allows.  ``util.reference_filtered_candidates`` enumerates
every (c, c0) and tests each form on each line; both must yield the same
forms in the same order, with the same term order.

``Poly``'s ring operations and named constructors merge their generated
terms without the public constructor's checks.  Each must give the term
map, in the same order, that the public constructor gives for the same
pairs.  The module needs no
pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_symbolic_kernel.py
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from operator import add

from expalg.classify import _line_filter, _linear_candidates
from expalg.factor import factor_dense
from expalg.errors import DimensionError
from expalg.poly import Poly, var_name, var_pos

from util import line_image, rand_fraction, rand_poly, reference_filtered_candidates, run_standalone

SPAN = range(-2, 3)


def _rand_form(rng, positions):
    """(c over all positions, c0): a random form on ``positions``, nonzero c."""
    while True:
        coeffs = {j: rng.choice(SPAN) for j in positions}
        if any(coeffs.values()):
            return coeffs, rng.choice(SPAN)


def _synthetic_lines(rng, width, planted, count):
    """Line filters (A, B, l, roots) with many zero entries, so that c.A = 0
    is common, random roots (t = 0 among them), and for every planted form a
    root at which it restricts to a divisor."""
    lines = []
    for _ in range(count):
        A = [rng.choice([-3, -1, 0, 0, 0, 1, 2]) for _ in range(width)]
        B = [rng.choice([-2, 0, 0, 1, 3]) for _ in range(width)]
        l = rng.choice([1, 2, 3, 6])
        roots = [(rng.randint(-9, 9), rng.choice([1, 2, 3, -4])) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.4:
            roots.append((0, 1))
        for coeffs, const in planted:
            alpha = sum(c * A[j] for j, c in coeffs.items())
            beta = const * l + sum(c * B[j] for j, c in coeffs.items())
            if alpha:
                roots.append((-beta, alpha))
        rng.shuffle(roots)
        lines.append((A, B, l, roots))
    return lines


def _image_lines(rng, p, count):
    """Filters of full-degree line images of p, as the oracle keeps them."""
    lines = []
    while len(lines) < count:
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * p.n)]
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * p.n)]
        image, A, B, l = line_image(p, a, b)
        if len(image) - 1 == p.total_degree():
            lines.append(_line_filter(A, B, l, factor_dense(image)))
    return lines


def _cases_seen(p, lines, seen):
    """Count which branches of the constant solve the lines exercise."""
    pos = [var_pos(p.n, kind, idx) for kind, idx in sorted(p.variables_used())]
    for coeffs in product(SPAN, repeat=len(pos)):
        for A, B, l, roots in lines:
            alpha = sum(c * A[j] for c, j in zip(coeffs, pos))
            beta = sum(c * B[j] for c, j in zip(coeffs, pos))
            if not alpha:
                seen["alpha 0, beta 0"] += any(c0 * l + beta == 0 for c0 in SPAN)
                seen["alpha 0, beta != 0"] += 1
                continue
            for r0, r1 in roots:
                seen["root at t = 0"] += r0 == 0
                c0, r = divmod(-(alpha * r0 + beta * r1), l * r1)
                seen["constant not an integer"] += r != 0
                seen["constant outside the span"] += r == 0 and c0 not in SPAN
                seen["constant in the span"] += r == 0 and c0 in SPAN


def test_solved_constants_match_enumerated_forms():
    rng = random.Random(24)
    seen = Counter()
    filtered = 0  # forms yielded under at least one line
    for k in range(40):
        n = rng.choice([1, 2, 3])
        active = rng.sample(range(2 * n), rng.randint(1, min(2 * n, 5 if k % 10 == 0 else 4)))
        coeffs = [int(j in active) for j in range(2 * n)]
        p = Poly.affine(n, coeffs, 1)
        if k % 4 == 3:
            # Real images: a planted form times a factor with a constant term.
            form, c0 = _rand_form(rng, active)
            planted = Poly.affine(n, [form.get(j, 0) for j in range(2 * n)], c0)
            p = planted * (rand_poly(rng, n, max_terms=3, max_exp=1) + Poly.const(n, 1))
            if len(p.variables_used()) > 5 or p.total_degree() < 2:
                continue
            lines = _image_lines(rng, p, rng.randint(1, 3))
        else:
            planted = [_rand_form(rng, active) for _ in range(rng.randint(0, 3))]
            lines = _synthetic_lines(rng, 2 * n, planted, rng.randint(0, 4))
        got = list(_linear_candidates(p, lines))
        want = list(reference_filtered_candidates(p, lines))
        assert got == want, (k, lines)
        assert [list(c.terms) for c in got] == [list(c.terms) for c in want], k
        filtered += len(got) if lines else 0
        _cases_seen(p, lines, seen)
    assert filtered >= 500, filtered
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def _power_pairs(form, e):
    """form^e by repeated products, each merged by the public constructor."""
    power = Poly.const(form.n, 1)
    for _ in range(e):
        power = Poly(form.n, _product_pairs(power, form))
    return power


def _product_pairs(a, b):
    return [(tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()]


def test_ring_operations_merge_as_the_public_constructor():
    # Operands share monomials and b is often close to -a, so many results
    # lose terms by cancellation; ``shrunk`` counts them.
    rng = random.Random(31)
    shrunk = 0
    for _ in range(150):
        n = rng.choice([1, 2, 3])
        a = rand_poly(rng, n, max_terms=5)
        b = rand_poly(rng, n, max_terms=4)
        if rng.random() < 0.4:
            b = Poly(n, chain(((m, -c) for m, c in a.terms.items()), b.terms.items()))
        c = rand_fraction(rng)
        kind, i = rng.choice("xu"), rng.randint(1, n)
        pos = var_pos(n, kind, i)
        coeffs = [rand_fraction(rng, span=2, den=2) for _ in range(2 * n)]
        const = rand_fraction(rng)
        form = Poly.affine(n, coeffs, const)
        substituted = [
            (tuple(map(add, m[:pos] + (0,) + m[pos + 1 :], m2)), v * v2)
            for m, v in a.terms.items()
            for m2, v2 in _power_pairs(form, m[pos]).terms.items()
        ]
        cases = [
            ("add", a + b, list(chain(a.terms.items(), b.terms.items()))),
            ("neg", -a, [(m, -v) for m, v in a.terms.items()]),
            ("sub", a - b, list(chain(a.terms.items(), ((m, -v) for m, v in b.terms.items())))),
            ("mul", a * b, _product_pairs(a, b)),
            ("scale", a.scale(c), [(m, c * v) for m, v in a.terms.items()]),
            (
                "derivative",
                a.derivative(kind, i),
                [(m[:pos] + (m[pos] - 1,) + m[pos + 1 :], v * m[pos]) for m, v in a.terms.items() if m[pos]],
            ),
            ("substitute", a.substitute_affine(kind, i, coeffs, const), substituted),
        ]
        for name, got, pairs in cases:
            want = Poly(n, pairs)
            assert got == want and list(got.terms) == list(want.terms), (name, a.terms, b.terms)
            assert all(type(v) is Fraction for v in got.terms.values()), name
            shrunk += len(got.terms) < len({m for m, _ in pairs})
    assert shrunk >= 50, shrunk


def test_named_constructors_build_the_public_constructors_terms():
    # Zero coefficients and zero constants drop out; int, float and Fraction
    # values become Fractions; affine's constant comes first.
    rng = random.Random(32)
    values = [0, 1, -2, Fraction(1, 3), 0.5]
    for n in (0, 1, 2, 3):
        width = 2 * n
        zero = (0,) * width
        units = [tuple(int(j == k) for j in range(width)) for k in range(width)]
        cases = [(Poly.const(n, v), Poly(n, {zero: v})) for v in values]
        cases += [(Poly.var(n, *var_name(n, k)), Poly(n, {unit: 1})) for k, unit in enumerate(units)]
        for _ in range(20):
            coeffs = [rng.choice(values) for _ in range(width)]
            const = rng.choice(values)
            cases.append((Poly.affine(n, coeffs, const), Poly(n, [(zero, const), *zip(units, coeffs)])))
        for got, want in cases:
            assert got.n == want.n and list(got.terms.items()) == list(want.terms.items()), want.terms
            assert all(type(v) is Fraction for v in got.terms.values())
    for bad in (lambda: Poly.var(2, "x", 3), lambda: Poly.var(2, "y", 1), lambda: Poly.affine(2, [1, 2, 3])):
        try:
            bad()
        except (DimensionError, ValueError):
            continue
        raise AssertionError("a named constructor took a bad argument")


if __name__ == "__main__":
    run_standalone(globals())
