"""Canonical exponential polynomials: expansion, ring laws, restriction."""

import random
from fractions import Fraction
from functools import partial

import pytest

from expalg.epoly import EPoly
from expalg.errors import DimensionError, HyperplaneError
from expalg.hyperplanes import Hyperplane, primitive_normalize
from expalg.parsing import format_epoly, parse_epoly, parse_poly
from expalg.poly import Poly

from util import (
    embed_on_hyperplane,
    rand_epoly,
    rand_point,
    rand_poly,
    reference_coefficient_groups,
    reference_eval_float,
)


def test_expand_groups_by_u_exponents():
    f = EPoly.from_poly(parse_poly("x1*u2 + x2*u1 - x1 - x2"))
    spectra = {tuple(map(int, s)): a for s, a in f.terms.items()}
    assert spectra[(0, 1)] == parse_poly("x1", ambient=2)
    assert spectra[(1, 0)] == parse_poly("x2", ambient=2)
    assert spectra[(0, 0)] == parse_poly("-x1 - x2")


def test_expand_pure_polynomial_and_line():
    p = parse_poly("x1^2 - 3")
    f = EPoly.from_poly(p)
    assert [s for s, _ in f.sorted_terms()] == [(Fraction(0),)]
    assert next(iter(f.terms.values())) == p

    f = EPoly.from_poly(parse_poly("2*x1 - u1 + 1"))
    assert format_epoly(f) == "(2*x1 + 1) + (-1)*exp(x1)"


def test_arithmetic_examples():
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    assert (f + (-f)).is_zero()
    square = parse_epoly("exp(x1)") * parse_epoly("exp(x1)")
    assert square == parse_epoly("exp(x1)^2")
    assert [s for s, _ in square.sorted_terms()] == [(Fraction(2),)]


def test_expansion_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice([1, 2])
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        assert EPoly.from_poly(p + q) == EPoly.from_poly(p) + EPoly.from_poly(q)
        assert EPoly.from_poly(p * q) == EPoly.from_poly(p) * EPoly.from_poly(q)


def test_expansion_is_faithful():
    rng = random.Random(12)
    for _ in range(60):
        p = rand_poly(rng, rng.choice([1, 2]))
        assert EPoly.from_poly(p).is_zero() == p.is_zero()


def test_derivative_examples():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    assert f.derivative(1) == parse_epoly("2 - exp(x1)")
    assert EPoly.zero(2).derivative(1).is_zero()
    g = parse_epoly("x1*exp(x2)")
    assert g.derivative(1) == parse_epoly("exp(x2)", ambient=2)


def test_derivative_linearity_and_leibniz():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = EPoly.from_poly(rand_poly(rng, n))
        g = EPoly.from_poly(rand_poly(rng, n))
        i = rng.randint(1, n)
        assert (f + g).derivative(i) == f.derivative(i) + g.derivative(i)
        assert (f * g).derivative(i) == f.derivative(i) * g + f * g.derivative(i)


def test_derivative_matches_finite_differences():
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    df = f.derivative(1)
    h = 1e-6
    rng = random.Random(14)
    for _ in range(20):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        fd = (f.eval_float([x[0] + h, x[1]]) - f.eval_float([x[0] - h, x[1]])) / (2 * h)
        exact = df.eval_float(x)
        assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


def test_restriction_worked_examples():
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    assert f.restrict(Hyperplane((1, 0))).is_zero()
    assert f.restrict(Hyperplane((0, 1))).is_zero()
    diag = f.restrict(Hyperplane((1, -1)))
    assert diag == parse_epoly("2*x1*exp(x1) - 2*x1", ambient=1)

    umbrella = parse_poly(
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
    )
    assert EPoly.from_poly(umbrella).restrict(Hyperplane((1, 0))).is_zero()


def test_restriction_introduces_rational_spectra():
    f = parse_epoly("exp(x1)", ambient=2)
    r = f.restrict(Hyperplane((2, -1)))
    # pivot is x1 (|2| > |-1|): spectrum 1 maps to 1 * 1/2 on the survivor.
    assert [s for s, _ in r.sorted_terms()] == [(Fraction(1, 2),)]


def test_restriction_is_ring_compatible():
    rng = random.Random(15)
    m = Hyperplane((1, -2))
    for _ in range(20):
        f = EPoly.from_poly(rand_poly(rng, 2))
        g = EPoly.from_poly(rand_poly(rng, 2))
        assert (f + g).restrict(m) == f.restrict(m) + g.restrict(m)
        assert (f * g).restrict(m) == f.restrict(m) * g.restrict(m)


def test_restriction_agrees_numerically_with_embedding():
    rng = random.Random(16)
    hyperplanes = [Hyperplane((1, 0)), Hyperplane((1, -1)), Hyperplane((2, 3))]
    for _ in range(10):
        f = EPoly.from_poly(rand_poly(rng, 2))
        for m in hyperplanes:
            r = f.restrict(m)
            for _ in range(20):
                xs = [rng.uniform(-2, 2)]
                inside = f.eval_float(embed_on_hyperplane(m.normal, xs))
                restricted = r.eval_float(xs)
                scale = max(1.0, abs(inside), abs(restricted))
                assert abs(inside - restricted) <= 1e-9 * scale


def _rand_normal(rng: random.Random, n: int) -> Hyperplane:
    while True:
        v = [rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(n)]
        if any(v):
            return primitive_normalize(v)


def test_restriction_is_exact_on_the_hyperplane_at_n3_and_n4():
    """f|m at a point equals f at that point's embedding, as exact value groups.

    The normals include zero entries and ties in |m_j|, so the pivot rule
    (largest |m_j|, smallest index on ties) has to agree with the embedding.
    """
    rng = random.Random(18)
    seen_zero = seen_tie = False
    for _ in range(40):
        n = rng.choice([3, 4])
        f = rng.choice([rand_epoly(rng, n), EPoly.from_poly(rand_poly(rng, n, max_terms=5))])
        m = _rand_normal(rng, n)
        sizes = sorted(abs(c) for c in m.normal)
        seen_zero |= sizes[0] == 0
        seen_tie |= sizes[-1] == sizes[-2]
        r = f.restrict(m)
        assert r.n == n - 1
        for _ in range(3):
            rest = rand_point(rng, n - 1)
            on_plane = embed_on_hyperplane(m.normal, rest)
            assert reference_coefficient_groups(r, rest) == reference_coefficient_groups(f, on_plane)
    assert seen_zero and seen_tie


def test_constructor_merges_pairs_in_arrival_order():
    a, b, c = (Fraction(2),), (Fraction(1, 2),), (Fraction(-1),)
    one, two = Poly.const(1, 1), Poly.var(1, "x", 1)
    f = EPoly(1, [(a, one), (b, two), (a, -one), (c, two), (a, two), (b, two), (c, -two)])
    assert list(f.terms) == [b, a]
    assert f.terms[b] == two.scale(2) and f.terms[a] == two
    assert EPoly(1, [(a, one), (a, -one)]).is_zero()
    # integer spectra are stored as Fractions, and the mapping form is unchanged
    assert list(EPoly(1, [((2,), one)]).terms) == [(Fraction(2),)]
    assert EPoly(1, {a: one, b: two}) == EPoly(1, [(a, one), (b, two)])


def test_identically_zero_evaluates_to_zero():
    rng = random.Random(17)
    p = rand_poly(rng, 2)
    z = EPoly.from_poly(p) - EPoly.from_poly(p)
    assert z.is_zero()
    f = parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2")
    r = f.restrict(Hyperplane((1, 0)))
    assert r.is_zero()
    for _ in range(100):
        x = [rng.uniform(-3, 3)]
        assert abs(r.eval_float(x)) <= 1e-9
    # exact rational evaluation through grouped values: empty exactly on zeros
    assert reference_coefficient_groups(f, [Fraction(1), Fraction(2)]) != {}
    assert reference_coefficient_groups(f, [Fraction(0), Fraction(2)]) == {}  # on the axis
    assert reference_coefficient_groups(r, [Fraction(1, 3)]) == {}


def test_u_variables_rejected_in_coefficients():
    with pytest.raises(ValueError):
        EPoly(1, {(Fraction(0),): Poly.var(1, "u", 1)})


def test_restrict_dimension_checks():
    f = parse_epoly("exp(x1)")
    with pytest.raises(DimensionError):
        f.restrict(Hyperplane((1, 0)))
    with pytest.raises(HyperplaneError):
        Hyperplane((0, 0))


def outcome(fn, pt) -> str:
    """repr of the value (telling -0.0 from 0.0, nan equal to nan) or of the exception type."""
    try:
        return repr(fn(pt))
    except OverflowError as exc:
        return repr(type(exc))


def test_float_evaluation_is_bit_identical_to_the_reference():
    rng = random.Random(41)
    coords = [0.0, -0.0, 1.0, -2.5, 1e-300, 3.0e5, -3.0e5, 705.0, -705.0, 800.0]
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        f = rand_epoly(rng, n, max_terms=5, max_exp=3)
        value = f.float_evaluator()
        for _ in range(6):
            pt = [rng.choice(coords) if rng.random() < 0.3 else rng.uniform(-40.0, 40.0) for _ in range(n)]
            expected = outcome(partial(reference_eval_float, f), pt)
            assert outcome(value, pt) == outcome(f.eval_float, pt) == expected
    with pytest.raises(DimensionError):
        value([0.0] * (n + 1))
