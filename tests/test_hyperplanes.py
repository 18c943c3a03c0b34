"""Candidate hyperplane construction and primitive normalization."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from expalg.errors import HyperplaneError
from expalg.hyperplanes import candidate_hyperplanes, primitive_normalize
from expalg.parsing import parse_poly
from expalg.poly import Poly

from util import mono


def test_primitive_normalize_examples():
    assert primitive_normalize((2, -2)).normal == (1, -1)
    assert primitive_normalize((0, -3)).normal == (0, 1)
    assert primitive_normalize((-4, 6)).normal == (2, -3)


def test_primitive_normalize_zero_vector_rejected():
    with pytest.raises(HyperplaneError):
        primitive_normalize((0, 0))


def test_candidates_worked_examples():
    cand = candidate_hyperplanes(parse_poly("x1*u2 + x2*u1 - x1 - x2"))
    assert [h.normal for h in cand] == [(0, 1), (1, -1), (1, 0)]

    umbrella = parse_poly(
        "(x1 + u1 - 1)*((2*x1 - u1 + 1)^2 + x2^2) + (2*x1 - u1 + 1)^3"
    )
    assert [h.normal for h in candidate_hyperplanes(umbrella)] == [(1, 0)]

    cand = candidate_hyperplanes(parse_poly("u1*u2"))
    assert cand == ()


def _random_poly_with_u_vectors(rng, n, m):
    vectors = set()
    while len(vectors) < m:
        vectors.add(tuple(rng.randint(0, 3) for _ in range(n)))
    terms = {}
    for u in vectors:
        x = tuple(rng.randint(0, 2) for _ in range(n))
        terms[mono(x, u)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(n, terms)


def test_candidate_count_bound_and_soundness():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.choice([2, 3])
        m = rng.randint(1, 8)
        p = _random_poly_with_u_vectors(rng, n, m)
        cand = candidate_hyperplanes(p)
        vectors = sorted(p.u_exponent_vectors())
        assert len(cand) <= len(vectors) * (len(vectors) - 1) // 2
        # soundness: every emitted hyperplane comes from some pair difference
        derivable = {
            primitive_normalize(tuple(a - b for a, b in zip(d, e)))
            for d, e in combinations(vectors, 2)
            if d != e
        }
        assert set(cand) == derivable


def test_candidates_invariant_under_scaling_and_reordering():
    rng = random.Random(22)
    for _ in range(50):
        p = _random_poly_with_u_vectors(rng, 2, rng.randint(2, 6))
        base = candidate_hyperplanes(p)
        assert candidate_hyperplanes(p.scale(Fraction(-7, 3))) == base
        shuffled_terms = list(p.terms.items())
        rng.shuffle(shuffled_terms)
        assert candidate_hyperplanes(Poly(p.n, dict(shuffled_terms))) == base
