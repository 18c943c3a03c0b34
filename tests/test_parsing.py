"""Grammar, canonical printing, and round-trip laws."""

import random

import pytest

from expalg.epoly import EPoly
from expalg.errors import ParseError
from expalg.hyperplanes import Hyperplane, primitive_normalize
from expalg.parsing import (
    format_epoly,
    format_hyperplane,
    format_poly,
    parse_epoly,
    parse_poly,
)

from util import rand_poly, reference_format_hyperplane


def test_parse_worked_examples():
    p = parse_poly("2*x1 - u1 + 1")
    assert p.n == 1 and len(p.terms) == 3

    q = parse_poly("x1*u2 + x2*u1 - x1 - x2")
    assert q.n == 2 and q.total_degree() == 2

    umbrella = parse_poly(
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
    )
    assert umbrella.n == 2 and umbrella.total_degree() == 3


def test_parse_epoly_examples():
    f = parse_epoly("2*x1 + 1 - exp(x1)")
    assert format_epoly(f) == "(2*x1 + 1) + (-1)*exp(x1)"
    assert parse_epoly("exp(x1)*exp(x1)") == parse_epoly("exp(x1)^2")
    assert parse_epoly("x1*exp(x2) + x2*exp(x1) - x1 - x2") == EPoly.from_poly(
        parse_poly("x1*u2 + x2*u1 - x1 - x2")
    )


def test_pretty_print_examples():
    from expalg.poly import Poly

    assert format_poly(Poly.zero(2)) == "0"
    assert format_hyperplane(Hyperplane((1, -1))) == "x1 - x2 = 0"
    assert format_hyperplane(Hyperplane((0, 1))) == "x2 = 0"


def test_hyperplane_equation_matches_the_linear_form_text():
    # Zero entries, +-1 and multi-digit entries, in every position.
    rng = random.Random(14)
    kinds = [0, 0, 1, -1, 2, -7, 12, -305]
    seen = set()
    for n in range(1, 7):
        for _ in range(80):
            v = [rng.choice(kinds) for _ in range(n)]
            if not any(v):
                continue
            m = primitive_normalize(v)
            assert format_hyperplane(m) == reference_format_hyperplane(m), m
            seen.update(abs(c) for c in m.normal)
    assert {0, 1, 2, 7, 12, 305} <= seen


def test_round_trip_corpus_and_random():
    corpus = [
        "2*x1 - u1 + 1",
        "x1*u2 + x2*u1 - x1 - x2",
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3",
        "x1^2 + (x2^2 + (u1 - 1)^2 - 1)^2",
        "0",
        "-1/2",
        "3/4*x1^2 - u2",
    ]
    for text in corpus:
        p = parse_poly(text, ambient=2)
        assert parse_poly(format_poly(p), ambient=2) == p
    rng = random.Random(61)
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        p = rand_poly(rng, n, max_terms=5, max_exp=3)
        assert parse_poly(format_poly(p), ambient=n) == p
        f = EPoly.from_poly(p)
        assert parse_epoly(format_epoly(f), ambient=n) == f


def test_whitespace_and_parenthesization_insensitivity():
    a = parse_poly("x1*u2 + x2*u1 - x1 - x2")
    b = parse_poly("  x1 * u2\n + (x2*u1) - (x1) - x2 ")
    assert a == b


def test_ambient_inference_and_override():
    assert parse_poly("x1").n == 1
    assert parse_poly("u2").n == 2
    assert parse_poly("x1", ambient=3).n == 3
    with pytest.raises(ParseError):
        parse_poly("x3", ambient=2)


def test_error_positions_and_messages():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @")
    assert err.value.line == 1 and err.value.column == 6

    with pytest.raises(ParseError):
        parse_poly("x1 x2")  # implicit multiplication rejected
    with pytest.raises(ParseError):
        parse_poly("x1/2")  # '/' only inside rational literals
    with pytest.raises(ParseError):
        parse_poly("exp(x1)")  # exp belongs to the epoly grammar
    with pytest.raises(ParseError):
        parse_epoly("exp(u1)")  # exp takes an x-variable
    with pytest.raises(ParseError):
        parse_epoly("exp(x1 + x2)")
    with pytest.raises(ParseError):
        parse_poly("x1^70")  # exponent limit
    with pytest.raises(ParseError):
        parse_poly("x1 +")


def test_parentheses_nest_at_most_64_deep():
    assert parse_poly("(" * 64 + "x1 + 1" + ")" * 64) == parse_poly("x1 + 1")
    assert parse_epoly("-(" * 64 + "exp(x1)" + ")" * 64) == parse_epoly("exp(x1)")
    with pytest.raises(ParseError) as err:
        parse_poly("(" * 65 + "x1" + ")" * 65)
    assert str(err.value) == "parentheses nested too deeply (limit 64) (line 1, column 65)"
    assert err.value.line == 1 and err.value.column == 65
    # the limit counts open parentheses, not all of them in the text
    assert parse_poly(" + ".join(["((x1))"] * 100)) == parse_poly("100*x1")


def test_variable_indices_and_ambient_are_at_most_64():
    assert parse_poly("x64 + u1").n == 64
    assert parse_epoly("exp(x64)").n == 64
    assert parse_poly("x1", ambient=64).n == 64
    for text, column in (("x65", 1), ("x1 + u65", 6), ("exp(x100000)", 5), ("x" + "9" * 5000, 1)):
        with pytest.raises(ParseError) as err:
            parse_epoly(text)
        assert str(err.value) == f"variable index too large (limit 64) (line 1, column {column})", text
    with pytest.raises(ParseError) as err:
        parse_poly("x1", ambient=65)
    assert str(err.value) == "ambient override 65 too large (limit 64) (line 1, column 1)"


def test_fractional_spectra_print_in_extended_form():
    f = parse_epoly("exp(x1)", ambient=2).restrict(Hyperplane((2, -1)))
    assert "exp((1/2)*x1)" in format_epoly(f)
