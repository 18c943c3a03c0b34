"""The oracle's integer kernels against their Fraction references.

``classify._specialize_to_line`` sums line images in integers over one
denominator; ``factor_dense`` splits square-free parts with primitive PRS
gcds and exact integer division; ``count_real_roots`` builds its Sturm chain
from integer pseudo-remainders.  The references in ``util`` do the same on
Fractions.  Images, factorizations and counts must be equal.  The module
needs no pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_factor_kernel.py
"""

import random
import sys
from fractions import Fraction

from expalg.classify import _specialize_to_line
from expalg.factor import (
    count_real_roots,
    ddeg,
    ddivmod,
    dmul,
    dpow,
    dprimitive,
    factor_dense,
    zdivexact,
    zgcd,
    zprem,
    zsquarefree,
)

from util import (
    rand_fraction,
    rand_poly,
    reference_count_real_roots,
    reference_dgcd,
    reference_factor_dense,
    reference_specialize_to_line,
    reference_squarefree_decomposition,
    reference_sturm_chain,
)


def rand_int_poly(rng: random.Random, deg: int, span: int = 5) -> list[int]:
    """Integer coefficients of degree exactly deg, lc of either sign."""
    return [rng.randint(-span, span) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def rand_product(rng: random.Random) -> list[Fraction]:
    """A rational multiple of a product of random factors, some repeated,
    times x^k: negative and fractional contents and x^k parts all occur."""
    f = [Fraction(rng.choice([-3, -1, 1, 2])) / rng.choice([1, 2, 3, 7])]
    for _ in range(rng.randint(1, 3)):
        fac = rand_int_poly(rng, rng.randint(1, 3), span=4)
        f = dmul(f, dpow([Fraction(c) for c in fac], rng.randint(1, 3)))
    return [Fraction(0)] * rng.choice([0, 0, 1, 2]) + f


def test_line_image_matches_fraction_reference():
    # Entries 0 for a_i and b_i make zero lines, constant lines and lines
    # through the origin; the fractions give the images denominators.
    rng = random.Random(13)
    entries = [Fraction(v) for v in (-3, -1, 0, 0, 1, 2)] + [Fraction(1, 2), Fraction(-5, 3), Fraction(7, 20)]
    seen = {"zero a_i": 0, "zero b_i": 0, "fractional image": 0, "zero image": 0}
    for _ in range(400):
        n = rng.choice([1, 2, 3])
        p = rand_poly(rng, n, max_terms=5, max_exp=3)
        if p.is_zero():
            continue
        a = [rng.choice(entries) for _ in range(2 * n)]
        b = [rng.choice(entries) for _ in range(2 * n)]
        got = _specialize_to_line(p, a, b)
        want = reference_specialize_to_line(p, a, b)
        assert got == want, (p, a, b)
        assert all(type(c) is Fraction for c in got)
        seen["zero a_i"] += 0 in a
        seen["zero b_i"] += 0 in b
        seen["fractional image"] += any(c.denominator > 1 for c in got)
        seen["zero image"] += not got
    assert all(seen.values()), seen


def test_integer_helpers_match_fraction_division():
    rng = random.Random(17)
    for _ in range(300):
        g = rand_int_poly(rng, rng.randint(0, 3))
        a = dmul(g, rand_int_poly(rng, rng.randint(0, 3)))
        b = dmul(g, rand_int_poly(rng, rng.randint(0, 3)))
        # zgcd is the primitive part of the monic gcd over Q.
        assert zgcd(a, b) == dprimitive(reference_dgcd(a, b))[1]
        # zprem is a positive multiple of the remainder over Q.
        rem = ddivmod([Fraction(c) for c in a], [Fraction(c) for c in b])[1]
        prem = zprem(a, b)
        assert len(prem) == len(rem)
        if rem:
            ratio = Fraction(prem[-1]) / rem[-1]
            assert ratio > 0 and [ratio * c for c in rem] == prem
        # zdivexact divides exactly what divides over Q, by a primitive divisor.
        _, d = dprimitive(b)
        quo, rem = ddivmod([Fraction(c) for c in a], [Fraction(c) for c in d])
        exact = zdivexact(a, d)
        assert exact == (None if rem else quo)
    # x^2 = (2x + 1)(x/2 - 1/4) + 1/4: the first quotient coefficient is
    # not an integer, and the remainder is not carried into the next step.
    assert zdivexact([0, 0, 1], [1, 2]) is None
    assert zdivexact([0, 0, 4], [1, 2]) is None
    assert zdivexact([-1, 0, 4], [1, 2]) == [-1, 2]


def test_squarefree_parts_match_yun_over_q():
    rng = random.Random(19)
    for _ in range(200):
        _, f = dprimitive(rand_product(rng))
        want = [(dprimitive(part)[1], mult) for part, mult in reference_squarefree_decomposition(f)]
        assert zsquarefree(f) == want, f


def test_factor_dense_matches_reference():
    rng = random.Random(23)
    seen = {"repeated": 0, "negative content": 0, "fractional content": 0, "x^k": 0}
    for _ in range(200):
        f = rand_product(rng)
        content, factors = factor_dense(f)
        assert (content, factors) == reference_factor_dense(f), f
        seen["repeated"] += any(m > 1 for g, m in factors if g != [0, 1])
        seen["negative content"] += content < 0
        seen["fractional content"] += content.denominator > 1
        seen["x^k"] += any(g == [0, 1] for g, _ in factors)
    assert all(seen.values()), seen


def test_count_real_roots_matches_fraction_sturm():
    # Sparse polynomials, such as x^7 + c x^2 + d, drop the remainder degree
    # by 2 or more in the chain; dense ones and repeated roots are mixed in.
    rng = random.Random(29)
    gaps = negative_lc = 0
    for k in range(400):
        if k % 3 == 0:
            f = rand_product(rng)
        elif k % 3 == 1:
            f = [rand_fraction(rng) for _ in range(rng.randint(2, 7))]
        else:
            f = [Fraction(0)] * rng.randint(3, 9)
            for j in rng.sample(range(len(f)), 3):
                f[j] = rand_fraction(rng)
        while f and not f[-1]:
            f.pop()
        assert count_real_roots(f) == reference_count_real_roots(f), f
        if ddeg(f) > 0:
            negative_lc += f[-1] < 0
            degs = [ddeg(c) for c in reference_sturm_chain(f)]
            gaps += any(d - e >= 2 for d, e in zip(degs, degs[1:]))
    assert gaps >= 20 and negative_lc >= 20, (gaps, negative_lc)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
