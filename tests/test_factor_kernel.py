"""The oracle's integer kernels against their Fraction references.

``classify._specialize_to_line`` sums line images in integers over one
denominator; ``factor_dense`` factors integer lists, splitting
square-free parts with primitive PRS gcds and exact integer division and
Hensel lifting in (Z / p^k)[x]; ``count_real_roots`` builds its Sturm chain
from integer pseudo-remainders.  The references in ``util`` do the same on
Fractions.  Images, factorizations and counts must be equal, and
the modular splitting must return the same factors for every seed.  Modular
division, which reduces once per step, must equal division that reduces at
every step, and so must the remainder-only ``gf_rem``; the prime is
chosen by distinct-degree counts, which must equal the number of factors of
the full splitting, and only the prime kept is split.  The module needs no pytest, so it also runs as a script on an
interpreter without it:

    PYTHONPATH=src python3 tests/test_factor_kernel.py
"""

import random
from fractions import Fraction

from expalg import factor
from expalg.factor import (
    _factor_squarefree_int,
    _gf_equal_degree,
    _hensel_lift,
    count_real_roots,
    dadd,
    ddeg,
    dderiv,
    dmul,
    dpow,
    dprimitive,
    factor_dense,
    gf_ddf,
    gf_divmod,
    gf_rem,
    gf_gcd,
    gf_monic,
    gf_trunc,
    over_common_denominator,
    zdivexact,
    zgcd,
    zprem,
    zprimitive,
    zsquarefree,
)

from util import (
    line_image,
    rand_fraction,
    rand_poly,
    reference_count_real_roots,
    reference_ddivmod,
    reference_dgcd,
    reference_factor_dense,
    reference_gf_divmod,
    reference_gf_factor_squarefree,
    reference_specialize_to_line,
    reference_squarefree_decomposition,
    reference_sturm_chain,
    run_standalone,
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


def rand_int_product(rng: random.Random) -> list[int]:
    """An integer multiple of a product of random factors, some repeated,
    times x^k: non-primitive lists, negative leading coefficients and x^k
    parts all occur."""
    f = [rng.choice([-6, -4, -1, 1, 2, 3])]
    for _ in range(rng.randint(1, 3)):
        f = dmul(f, dpow(rand_int_poly(rng, rng.randint(1, 3), span=4), rng.randint(1, 3)))
    return [0] * rng.choice([0, 0, 1, 2]) + f


def rand_squarefree(rng: random.Random, factors: int) -> list[int] | None:
    """A primitive square-free product of at least ``factors`` irreducible
    factors over Q, lc > 0, or None when the draw repeats a factor."""
    f = [1]
    for _ in range(factors):
        f = dmul(f, rand_int_poly(rng, rng.choice([1, 1, 2, 3]), span=6))
    f = zprimitive(f)
    parts = zsquarefree(f)
    return f if parts == [(f, 1)] else None


def admissible(f: list[int], p: int) -> bool:
    """Whether f keeps its degree and stays square-free modulo p."""
    fp = gf_trunc(f, p)
    return ddeg(fp) == ddeg(f) and ddeg(gf_gcd(fp, gf_trunc(dderiv(f), p), p)) == 0


def split_modular(fp: list[int], p: int, rng: random.Random) -> list[list[int]]:
    """The monic factors of a monic square-free fp modulo p, from its
    distinct-degree parts, sorted as ``_factor_squarefree_int`` sorts them."""
    modular = [q for g, d in gf_ddf(fp, p) for q in _gf_equal_degree(g, d, p, rng)]
    return sorted(modular, key=lambda q: (ddeg(q), tuple(q)))


def test_line_image_matches_fraction_reference():
    # Entries 0 for a_i and b_i make zero lines, constant lines and lines
    # through the origin; the fractions give the images denominators.  The
    # integer image is D l^d times the image over Q, with p's coefficients
    # over the denominator D, the line over l and d the total degree of p.
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
        got, _, _, l = line_image(p, a, b)
        want = reference_specialize_to_line(p, a, b)
        _, D = over_common_denominator(list(p.terms.values()))
        scale = D * l ** p.total_degree()
        assert got == [scale * c for c in want], (p, a, b)
        assert all(type(c) is int for c in got)
        seen["zero a_i"] += 0 in a
        seen["zero b_i"] += 0 in b
        seen["fractional image"] += any(c.denominator > 1 for c in want)
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
        rem = reference_ddivmod([Fraction(c) for c in a], [Fraction(c) for c in b])[1]
        prem = zprem(a, b)
        assert len(prem) == len(rem)
        if rem:
            ratio = Fraction(prem[-1]) / rem[-1]
            assert ratio > 0 and [ratio * c for c in rem] == prem
        # zdivexact divides exactly what divides over Q, by a primitive divisor.
        _, d = dprimitive(b)
        quo, rem = reference_ddivmod([Fraction(c) for c in a], [Fraction(c) for c in d])
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
    seen = {"repeated": 0, "non-primitive": 0, "negative lc": 0, "x^k": 0}
    for _ in range(200):
        f = rand_int_product(rng)
        factors = factor_dense(f)
        content, want = reference_factor_dense(f)
        assert factors == want, f
        assert all(type(c) is int for g, _ in factors for c in g)
        seen["repeated"] += any(m > 1 for g, m in factors if g != [0, 1])
        seen["non-primitive"] += abs(content) != 1
        seen["negative lc"] += f[-1] < 0
        seen["x^k"] += any(g == [0, 1] for g, _ in factors)
    assert all(seen.values()), seen


def test_modular_splitting_is_seed_independent():
    # Products of three or four irreducible factors have at least three
    # factors modulo every admissible prime, so the equal-degree splitting
    # draws from the generator; the factors it returns are unique.
    rng = random.Random(41)
    done = 0
    while done < 60:
        f = rand_squarefree(rng, rng.choice([3, 4]))
        if f is None:
            continue
        got = [_factor_squarefree_int(f, random.Random(s)) for s in range(5)]
        assert len(got[0]) >= 3 and all(g == got[0] for g in got), f
        done += 1


def test_hensel_lift_reduces_to_the_modular_factors():
    # Each lifted factor is monic and reduces to its modular factor mod p,
    # and lc(f) times their product is f mod p^l.
    rng = random.Random(43)
    done = 0
    while done < 60:
        f = rand_squarefree(rng, rng.choice([2, 3, 4]))
        if f is None:
            continue
        p = next(q for q in (3, 5, 7, 11, 13, 17, 19, 23) if f[-1] % q and admissible(f, q))
        modular = split_modular(gf_monic(f, p), p, random.Random(0))
        if len(modular) < 2:
            continue
        l = rng.randint(2, 9)
        lifted = _hensel_lift(p, f, modular, l)
        assert [gf_trunc(g, p) for g in lifted] == modular, (f, p)
        assert all(g[-1] == 1 for g in lifted)
        prod = [f[-1]]
        for g in lifted:
            prod = dmul(prod, g)
        assert gf_trunc(prod, p**l) == gf_trunc(f, p**l), (f, p, l)
        done += 1


def test_gf_divmod_matches_per_step_reduction():
    # Dividends with unreduced and negative coefficients, moduli p and the
    # p^k of Hensel steps, divisors whose top coefficient is not 1 (nor
    # reduced), and dividends shorter than the divisor.  ``gf_rem``, which
    # builds no quotient, must give the same remainder.
    rng = random.Random(47)
    seen = {"prime power": 0, "top not 1": 0, "short dividend": 0, "negative": 0}
    for _ in range(800):
        p = rng.choice([3, 5, 7, 11, 13])
        m = p ** rng.choice([1, 1, 2, 9, 24, 60])
        top = rng.choice([1, -1, 2, m - 1, rng.randrange(1, m)])
        if top % p == 0:
            continue
        top += m * rng.randint(-2, 2)
        b = [rng.randrange(-3 * m, 3 * m) for _ in range(rng.randint(0, 5))] + [top]
        a = [rng.randrange(-5 * m, 5 * m) for _ in range(rng.randint(0, 11))]
        quo, rem = gf_divmod(a, b, m)
        assert (quo, rem) == reference_gf_divmod(a, b, m), (a, b, m)
        assert gf_rem(a, b, m) == rem, (a, b, m)
        assert len(rem) < len(b) and gf_trunc(dadd(dmul(quo, b), rem), m) == gf_trunc(a, m)
        seen["prime power"] += m != p
        seen["top not 1"] += top % m != 1
        seen["short dividend"] += len(a) < len(b)
        seen["negative"] += any(c < 0 for c in a)
    assert all(v >= 50 for v in seen.values()), seen


def test_distinct_degree_counts_match_the_full_splitting():
    # Random monic square-free f modulo odd primes: the parts multiply back
    # to f, their counts sum(deg g // d) are the number of irreducible
    # factors, and splitting them gives the factors of the full splitting.
    rng = random.Random(53)
    done = needs_split = 0
    while done < 300:
        p = rng.choice([3, 5, 7, 11, 13, 31])
        f = [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [1]
        if ddeg(gf_gcd(f, gf_trunc(dderiv(f), p), p)) != 0:
            continue
        parts = gf_ddf(f, p)
        prod = [1]
        for g, d in parts:
            assert g[-1] == 1 and ddeg(g) % d == 0, (f, p)
            prod = dmul(prod, g)
        assert gf_trunc(prod, p) == f, (f, p)
        want = reference_gf_factor_squarefree(f, p, random.Random(0))
        assert sum(ddeg(g) // d for g, d in parts) == len(want), (f, p)
        assert split_modular(f, p, random.Random(done)) == want, (f, p)
        needs_split += any(ddeg(g) > d for g, d in parts)
        done += 1
    assert needs_split >= 50, needs_split


def test_only_the_kept_prime_is_split():
    # Wrapped, the distinct-degree split records each prime scored and the
    # equal-degree split each prime it splits: one _factor_squarefree_int
    # call splits at most one prime, a prime it scored.
    scored: list[int] = []
    split: list[int] = []
    ddf, edf = factor.gf_ddf, factor._gf_equal_degree

    def counting_ddf(f, p):
        scored.append(p)
        return ddf(f, p)

    def counting_edf(g, d, p, rng):
        split.append(p)
        return edf(g, d, p, rng)

    factor.gf_ddf, factor._gf_equal_degree = counting_ddf, counting_edf
    try:
        rng = random.Random(59)
        done = several = 0
        while done < 60:
            f = rand_squarefree(rng, rng.choice([2, 3, 4]))
            if f is None:
                continue
            scored.clear()
            split.clear()
            _factor_squarefree_int(f, random.Random(0))
            assert len(set(split)) <= 1 and set(split) <= set(scored), (f, scored, split)
            several += len(scored) > 1 and bool(split)
            done += 1
    finally:
        factor.gf_ddf, factor._gf_equal_degree = ddf, edf
    assert several >= 10, several


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
    run_standalone(globals())
