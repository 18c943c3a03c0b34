"""Exact polynomial arithmetic: worked examples and ring-law properties."""

import random
from fractions import Fraction

import pytest

from expalg.classify import _stable_seed
from expalg.errors import DimensionError
from expalg.parsing import format_poly, parse_poly
from expalg.poly import Poly, var_name, var_pos

from util import mono, rand_point, rand_poly


def test_difference_of_squares():
    n = 1
    x, u = Poly.var(n, "x", 1), Poly.var(n, "u", 1)
    assert (x + u) * (x - u) == parse_poly("x1^2 - u1^2")


def test_additive_inverse_is_zero():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(rng, 2)
        assert (p + (-p)).is_zero()


def test_square_expansion_matches_hand_result():
    p = parse_poly("2*x1 - u1 + 1")
    expected = parse_poly("4*x1^2 - 4*x1*u1 + 4*x1 + u1^2 - 2*u1 + 1")
    square = p * p
    assert square == expected
    # Cross-check by exact evaluation at random rational points.
    rng = random.Random(2)
    for _ in range(5):
        pt = rand_point(rng, 2)
        assert square.eval(pt) == p.eval(pt) ** 2


def test_canonical_form_drops_zero_coefficients():
    n = 1
    m = mono((1,), (0,))
    assert Poly(n, {m: Fraction(0)}).is_zero()
    p = Poly(n, {m: Fraction(2)}) + Poly(n, {m: Fraction(-2)})
    assert p.is_zero() and p.terms == {}


def test_constructor_merges_pairs_in_arrival_order():
    a, b, c = mono((0,), (0,)), mono((1,), (0,)), mono((0,), (1,))
    p = Poly(1, [(a, 1), (b, 2), (a, -1), (c, Fraction(1, 2)), (a, 3), (b, 1), (c, 0)])
    # a cancels and comes back: it arrives anew, after c
    assert list(p.terms) == [b, c, a]
    assert p.terms == {b: 3, c: Fraction(1, 2), a: 3}
    assert all(type(v) is Fraction for v in p.terms.values())
    assert Poly(1, [(a, 2), (a, -2)]).is_zero()
    assert Poly(1, iter([])).is_zero() and Poly(1).is_zero()
    # the mapping form behaves as before
    assert list(Poly(1, {c: 1, a: 0, b: -1}).terms) == [c, b]
    assert Poly(1, {a: 1, b: 2}) == Poly(1, [(a, 1), (b, 2)])
    with pytest.raises(DimensionError):
        Poly(1, [(mono((1, 0), (0, 0)), 1)])
    with pytest.raises(ValueError):
        Poly(1, [(mono((-1,), (0,)), 1)])


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionError):
        Poly.var(1, "x", 1) + Poly.var(2, "x", 1)
    with pytest.raises(DimensionError):
        Poly.var(2, "x", 3)


def test_ring_axioms_on_random_inputs():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        a, b, c = (rand_poly(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice([1, 2])
        a, b = rand_poly(rng, n), rand_poly(rng, n)
        pt = rand_point(rng, 2 * n)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_eval_examples():
    p = parse_poly("2*x1 - u1 + 1")
    assert p.eval([Fraction(0), Fraction(1)]) == 0
    assert Poly.zero(2).eval([1, 2, 3, 4]) == 0
    q = parse_poly("x1*u2 + x2*u1 - x1 - x2")
    assert q.eval([1, 1, 2, 3]) == 3


def test_eval_length_check():
    with pytest.raises(DimensionError):
        parse_poly("x1 + u1").eval([1])


def test_derivative_examples():
    assert parse_poly("2*x1 - u1 + 1").derivative("u", 1) == Poly.const(1, -1)
    assert parse_poly("x1^2*u2").derivative("x", 1) == parse_poly("2*x1*u2")
    umbrella = parse_poly(
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
    )
    d = umbrella.derivative("x", 1)
    assert d.eval([Fraction(0), Fraction(0), Fraction(1), Fraction(1)]) == 0


def test_derivative_leibniz_rule():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice([1, 2])
        a, b = rand_poly(rng, n), rand_poly(rng, n)
        kind = rng.choice(["x", "u"])
        i = rng.randint(1, n)
        lhs = (a * b).derivative(kind, i)
        rhs = a * b.derivative(kind, i) + b * a.derivative(kind, i)
        assert lhs == rhs


def test_substitute_affine_examples():
    q = parse_poly("x1*u2 + x2*u1 - x1 - x2")
    # x1 <- x2
    form = [Fraction(0)] * 4
    form[1] = Fraction(1)
    assert q.substitute_affine("x", 1, form) == parse_poly(
        "x2*u2 + x2*u1 - 2*x2", ambient=2
    )
    # identity substitution x1 <- x1
    ident = [Fraction(0)] * 4
    ident[0] = Fraction(1)
    assert q.substitute_affine("x", 1, ident) == q
    umbrella = parse_poly(
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
    )
    assert umbrella.substitute_value("x", 1, 0) == parse_poly(
        "x2^2*u1 - x2^2", ambient=2
    )


def test_substitute_commutes_with_evaluation():
    rng = random.Random(6)
    for _ in range(75):
        n = rng.choice([1, 2, 3])
        p = rand_poly(rng, n)
        coeffs = [rand_point(rng, 1)[0] for _ in range(2 * n)]
        const = rand_point(rng, 1)[0]
        target_kind = rng.choice(["x", "u"])
        target_idx = rng.randint(1, n)
        substituted = p.substitute_affine(target_kind, target_idx, coeffs, const)
        pt = rand_point(rng, 2 * n)
        value = const + sum(c * v for c, v in zip(coeffs, pt))
        embedded = list(pt)
        pos = target_idx - 1 if target_kind == "x" else n + target_idx - 1
        embedded[pos] = value
        assert substituted.eval(pt) == p.eval(embedded)


def test_power_and_scale():
    p = parse_poly("x1 + 1")
    assert p**0 == Poly.const(1, 1)
    assert p**3 == p * p * p
    assert p.scale(Fraction(3, 2)).eval([2, 0]) == Fraction(9, 2)


# Observable outputs of the monomial layout, recorded when a monomial was a
# pair of x- and u-exponent tuples: (text, n, oracle seed, canonical text,
# monomials in sorted_terms order as x-exponents then u-exponents).
LAYOUT_CASES = [
    ("2*x1 - u1 + 1", 1, 13986653927692771661, "2*x1 - u1 + 1", [(1, 0), (0, 1), (0, 0)]),
    (
        "x1^2*u1 - 3*u1^2 + x1*u1 - 1/2",
        1,
        6495893682063435354,
        "x1^2*u1 + x1*u1 - 3*u1^2 - 1/2",
        [(2, 1), (1, 1), (0, 2), (0, 0)],
    ),
    (
        "x1*u2 + x2*u1 - x1 - x2",
        2,
        16384157865105445991,
        "x1*u2 + x2*u1 - x1 - x2",
        [(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0)],
    ),
    (
        "(x1 + u2 - 1)*(x2 + u1 + 1)",
        2,
        12207926651023008824,
        "x1*x2 + x1*u1 + x2*u2 + u1*u2 + x1 - x2 - u1 + u2 - 1",
        [
            (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0),
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0),
        ],
    ),
    (
        "x1*x2*u3 + 5*u1^2*u2 - x3^3 + 7/3*u3",
        3,
        11469007431035589914,
        "x1*x2*u3 - x3^3 + 5*u1^2*u2 + 7/3*u3",
        [(1, 1, 0, 0, 0, 1), (0, 0, 3, 0, 0, 0), (0, 0, 0, 2, 1, 0), (0, 0, 0, 0, 0, 1)],
    ),
    (
        "(x1 + u2 - 1)*(x2 + u3 + 1)",
        3,
        2983123310381854395,
        "x1*x2 + x1*u3 + x2*u2 + u2*u3 + x1 - x2 + u2 - u3 - 1",
        [
            (1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 1, 1),
            (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 0),
        ],
    ),
]


@pytest.mark.parametrize("text, n, seed, canonical, order", LAYOUT_CASES)
def test_layout_keeps_seeds_text_and_term_order(text, n, seed, canonical, order):
    p = parse_poly(text, n)
    assert _stable_seed(p, 0) == seed
    assert format_poly(p) == canonical
    assert [m for m, _ in p.sorted_terms()] == order


def test_monomial_content():
    assert Poly.zero(2).monomial_content() == (0, 0, 0, 0)
    assert parse_poly("3*x1^2*u2", 2).monomial_content() == (2, 0, 0, 1)
    assert parse_poly("x1^2*u1*u2 + x1*u1^2*u2^3", 2).monomial_content() == (1, 0, 1, 1)


def test_var_pos_and_var_name_are_inverse():
    for n in range(1, 5):
        positions = [var_pos(n, kind, i) for kind in "xu" for i in range(1, n + 1)]
        assert positions == list(range(2 * n))
        for kind in "xu":
            for i in range(1, n + 1):
                assert var_name(n, var_pos(n, kind, i)) == (kind, i)
                assert Poly.var(n, kind, i).variables_used() == {(kind, i)}
        for bad in (("x", 0), ("u", n + 1)):
            with pytest.raises(DimensionError):
                var_pos(n, *bad)
        with pytest.raises(ValueError):
            var_pos(n, "y", 1)
