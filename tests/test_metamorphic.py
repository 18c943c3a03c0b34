"""Metamorphic relations of 1-D root isolation and of hyperplane
certificates on seeded inputs.

For f = P(x1, e^x1), the functions c f (c a nonzero rational) and
u1^k f = e^(k x1) f have the zeros of f and no others.  So on one domain the
isolator must certify as many roots for each as for f, and each certified
enclosure of one run must meet exactly one certified enclosure of the other.
The reflection e^(S x1) f(-x1), S the largest exponent of f, is again a
polynomial in x1 and e^x1, and its zeros are those of f negated: on the
symmetric domain each enclosure of one run, negated, must meet exactly one
enclosure of the other.
For an integer matrix M with det 1 and nonnegative entries, f(M x) comes
from P_M(x, u) = P(M x, u^M), where u^d becomes u^(M^T d).  f vanishes on
{a . y = 0} exactly when f(M x) vanishes on {(M^T a) . x = 0}, so the
certified normals of P_M are the primitive M^T a for the certified a of P.
Restriction to a hyperplane H is a ring homomorphism, and exponential
polynomials form an integral domain, so (f_P f_Q)|H is zero exactly when
f_P|H or f_Q|H is: the certified hyperplanes of P Q are the candidates of
P Q on which f_P or f_Q vanishes.
The claims are on counts and containment, not on bytes: the float
enclosures that steer the bisection change with how f is written, and at a
coarse tolerance so may the width of an enclosure.  The module needs no
pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_metamorphic.py
"""

import random
from fractions import Fraction

from expalg.classify import classify_codim1
from expalg.epoly import EPoly
from expalg.hyperplanes import candidate_hyperplanes, primitive_normalize
from expalg.numeric import isolate_roots_1d
from expalg.poly import Poly

from util import rand_epoly, rand_nonzero_poly, run_standalone

DOMAIN = (-4.0, 4.0)
TOL = 1e-6


def certified(f: EPoly) -> list[tuple[float, float]]:
    certs, _ = isolate_roots_1d(f, DOMAIN, TOL)
    return [(r.enclosure.lo, r.enclosure.hi) for r in certs]


def meets_exactly_one(mine: list[tuple[float, float]], theirs: list[tuple[float, float]]) -> bool:
    return all(sum(1 for lo, hi in theirs if lo <= b and a <= hi) == 1 for a, b in mine)


def seeded_inputs(seed: int, count: int) -> list[EPoly]:
    rng = random.Random(seed)
    inputs = []
    while len(inputs) < count:
        f = rand_epoly(rng, 1, max_terms=3, max_exp=3)
        if not f.is_zero():
            inputs.append(f)
    return inputs


def check_same_roots(f: EPoly, g: EPoly, mirror: bool = False) -> int:
    mine, theirs = certified(f), certified(g)
    if mirror:
        mine = [(-hi, -lo) for lo, hi in reversed(mine)]
    assert len(mine) == len(theirs), (f, g, mine, theirs)
    assert meets_exactly_one(mine, theirs) and meets_exactly_one(theirs, mine), (f, g, mine, theirs)
    return len(mine)


def test_nonzero_rational_multiple_has_the_same_roots():
    rng = random.Random(1401)
    roots = 0
    for f in seeded_inputs(1402, 100):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, 10**6, Fraction(1, 10**6)))
        roots += check_same_roots(f, f.scale(c))
    assert roots >= 80  # the inputs have roots to compare


def test_exponential_multiple_has_the_same_roots():
    rng = random.Random(1403)
    u1 = EPoly.from_poly(Poly.var(1, "u", 1))
    roots = 0
    for f in seeded_inputs(1404, 100):
        g = f
        for _ in range(rng.randint(1, 3)):
            g = u1 * g
        roots += check_same_roots(f, g)
    assert roots >= 80


def reflected(f: EPoly) -> EPoly:
    """e^(S x1) f(-x1), with S the largest exponent of f."""
    top = max(s for (s,) in f.terms)
    return EPoly(1, {(top - s,): Poly(1, {m: c * (-1) ** m[0] for m, c in a.terms.items()}) for (s,), a in f.terms.items()})


def test_reflection_negates_the_roots():
    roots = 0
    for f in seeded_inputs(1405, 100):
        roots += check_same_roots(f, reflected(f), mirror=True)
    assert roots >= 80


#: integer changes of variables, det 1 and entries >= 0: u^M stays a polynomial
MAPS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)))


def planted_2d(rng: random.Random) -> tuple[Poly, tuple[int, int]]:
    """(d . x) A + (u^d+ - u^d-)(u^e B1 + u^e' B2), which vanishes on
    {d . x = 0}: A a constant, B1 and B2 polynomials in x, e != e' in
    {0, (1, 0), (0, 1)}.  Returns P and the planted primitive normal d."""
    while True:
        d = (rng.randint(-2, 2), rng.randint(-2, 2))
        if d != (0, 0) and primitive_normalize(d).normal == d:
            break
    zero = (0, 0)
    lin = Poly(2, {(1, 0, *zero): d[0], (0, 1, *zero): d[1]})
    binom = Poly(2, {(0, 0, *(max(e, 0) for e in d)): 1, (0, 0, *(max(-e, 0) for e in d)): -1})
    b = Poly.zero(2)
    for e in rng.sample([zero, (1, 0), (0, 1)], 2):
        x_part = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2), *e): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))})
        b = b + x_part
    return lin.scale(rng.choice((-2, -1, 1, 3))) + binom * b, d


def changed(p: Poly, m) -> Poly:
    """P_M(x, u) = P(M x, u^M): x_i becomes sum_j M_ij x_j, u^d becomes u^(M^T d)."""
    forms = [Poly.affine(2, [*row, 0, 0]) for row in m]
    out = Poly.zero(2)
    for mono, c in p.terms.items():
        xe, ue = mono[:2], mono[2:]
        term = Poly(2, {(0, 0, *(sum(m[i][j] * ue[i] for i in range(2)) for j in range(2))): c})
        for form, e in zip(forms, xe):
            term = term * form**e
        out = out + term
    return out


def certified_normals(p: Poly) -> set[tuple[int, ...]]:
    return {h.hyperplane.normal for h in classify_codim1(p).hyperplanes}


def test_integer_change_of_variables_maps_the_certified_normals():
    rng = random.Random(1406)
    pairs = 0
    for _ in range(45):
        p, d = planted_2d(rng)
        normals = certified_normals(p)
        assert d in normals, (p, d)
        for m in MAPS:
            mapped = {primitive_normalize([sum(m[i][j] * a[i] for i in range(2)) for j in range(2)]).normal for a in normals}
            assert certified_normals(changed(p, m)) == mapped, (p, m)
            pairs += 1
    assert pairs == 135


def test_certified_hyperplanes_of_a_product_are_those_of_its_factors():
    rng = random.Random(1407)
    with_hyperplane = 0
    for k in range(60):
        p = planted_2d(rng)[0] if k % 2 == 0 else rand_nonzero_poly(rng, 2)
        q = planted_2d(rng)[0] if k % 3 == 0 else rand_nonzero_poly(rng, 2)
        f_p, f_q = EPoly.from_poly(p), EPoly.from_poly(q)
        report = classify_codim1(p * q, assume_irreducible=True, assume_codim1=True)
        got = [c.hyperplane for c in report.hyperplanes]
        want = [h for h in candidate_hyperplanes(p * q) if f_p.restrict(h).is_zero() or f_q.restrict(h).is_zero()]
        assert got == want, (p, q)
        with_hyperplane += bool(want)
    assert with_hyperplane >= 50, with_hyperplane  # 52: the planted 40 and 12 more


if __name__ == "__main__":
    run_standalone(globals())
