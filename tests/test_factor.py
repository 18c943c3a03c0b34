"""Univariate factorization over Q and Sturm real-root counting."""

import random
from fractions import Fraction as F

import pytest

from expalg.factor import (
    count_real_roots,
    dmul,
    dpow,
    dprimitive,
    dtrim,
    factor_dense,
    factor_univariate,
    poly_to_dense,
)
from expalg.parsing import format_poly, parse_poly

from util import reference_ddivmod


def test_factor_worked_examples():
    factors = factor_dense([-1, 0, 1])  # x^2 - 1
    assert [(f, m) for f, m in factors] == [([-1, 1], 1), ([1, 1], 1)]

    assert factor_dense([1, 0, 1]) == [([1, 0, 1], 1)]  # x^2 + 1

    # 6x^3 - 9x^2 - 15x = 3 * x * (x + 1) * (2x - 5)
    assert dprimitive([F(0), F(-15), F(-9), F(6)])[0] == 3
    assert factor_dense([0, -15, -9, 6]) == [([-5, 2], 1), ([0, 1], 1), ([1, 1], 1)]
    # a negative content drops out with the rest of it
    assert factor_dense([0, 15, 9, -6]) == [([-5, 2], 1), ([0, 1], 1), ([1, 1], 1)]
    assert factor_dense([-7]) == []
    with pytest.raises(ValueError):
        factor_dense([0, 0])


def test_factor_recombination_hard_cases():
    # Irreducible over Q although reducible modulo every prime.
    assert factor_dense([1, 0, 0, 0, 1]) == [([1, 0, 0, 0, 1], 1)]
    assert factor_dense([1] + [0] * 7 + [1]) == [([1] + [0] * 7 + [1], 1)]


def test_factor_random_products_reassemble():
    rng = random.Random(31)
    for _ in range(60):
        f = [rng.choice([1, 2, 3])]
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 3)
            fac = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
            f = dmul(f, dpow(fac, rng.randint(1, 2)))
        content, _ = dprimitive(f)
        factors = factor_dense(f)
        rebuilt = [content]
        for fac, mult in factors:
            rebuilt = dmul(rebuilt, dpow([F(c) for c in fac], mult))
        assert dtrim(rebuilt) == dtrim(f)
        # irreducibility of the parts: no returned factor divides another
        for fac, _ in factors:
            assert fac[-1] > 0


def test_factor_univariate_poly_interface():
    p = parse_poly("x2^4 - 2*x2^2 + 1", ambient=2)
    content, factors = factor_univariate(p)
    assert content == 1
    printed = sorted((format_poly(f), m) for f, m in factors)
    assert printed == [("x2 + 1", 2), ("x2 - 1", 2)]

    q = parse_poly("u1^2 - 4")
    content, factors = factor_univariate(q)
    assert sorted((format_poly(f), m) for f, m in factors) == [
        ("u1 + 2", 1),
        ("u1 - 2", 1),
    ]


def test_factor_univariate_constant_and_errors():
    content, factors = factor_univariate(parse_poly("3/4"))
    assert content == F(3, 4) and factors == []
    with pytest.raises(ValueError):
        factor_univariate(parse_poly("x1*x2"))
    with pytest.raises(ValueError):
        factor_univariate(parse_poly("0"))


def test_poly_to_dense_roundtrip():
    p = parse_poly("2*x1^3 - x1 + 5")
    var, coeffs = poly_to_dense(p)
    assert var == ("x", 1)
    assert coeffs == [F(5), F(-1), F(0), F(2)]


def test_division_with_remainder():
    quo, rem = reference_ddivmod([F(1), F(0), F(1)], [F(1), F(1)])
    # x^2 + 1 = (x + 1)(x - 1) + 2
    assert quo == [F(-1), F(1)] and rem == [F(2)]


def test_count_real_roots():
    assert count_real_roots([F(1), F(0), F(1)]) == 0  # x^2 + 1
    assert count_real_roots([F(-2), F(0), F(0), F(1)]) == 1  # x^3 - 2
    assert count_real_roots([F(1), F(2), F(1)]) == 1  # (x + 1)^2
    assert count_real_roots([F(4), F(-4), F(-3), F(2), F(1)]) == 2  # (x - 1)^2 (x + 2)^2
    assert count_real_roots([F(-1), F(0), F(1)]) == 2  # x^2 - 1
    assert count_real_roots([F(0), F(-15), F(-9), F(6)]) == 3
