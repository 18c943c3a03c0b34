"""The hyperplane certificate against restriction, candidate by candidate.

``classify._certify`` refutes a candidate by one exact nonzero value of f at
a rational point of the hyperplane and restricts f only where that value is
0.  Its split must be the one ``f.restrict(m).is_zero()`` gives, also when
the point is a zero of f off a hyperplane that f does not contain.  The
module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_certify.py
"""

import random
from fractions import Fraction

from expalg.classify import _certify, _point_on, classify_codim1
from expalg.epoly import EPoly
from expalg.errors import DimensionError
from expalg.hyperplanes import Hyperplane, candidate_hyperplanes, primitive_normalize
from expalg.parsing import parse_poly
from expalg.poly import Poly

from util import rand_epoly, rand_nonzero_poly, run_standalone

CERTIFIED = "restriction to the hyperplane is the zero exponential polynomial"
REJECTED = "restriction does not vanish identically"


class CountingRestrict:
    """Count ``EPoly.restrict`` calls inside the block, then put it back."""

    def __enter__(self):
        self.calls = 0
        self.original = EPoly.restrict

        def restrict(f, m):
            self.calls += 1
            return self.original(f, m)

        EPoly.restrict = restrict
        return self

    def __exit__(self, *exc):
        EPoly.restrict = self.original


def rand_normal(rng: random.Random, n: int) -> Hyperplane:
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if any(v):
            return primitive_normalize(v)


def vanishing_factor(rng: random.Random, m: Hyperplane) -> EPoly:
    """An EPoly that is zero on {m . x = 0}: the linear form m . x, or
    e^(d . x) - e^(d' . x) with d - d' a multiple of m."""
    n = m.dimension
    if rng.random() < 0.5:
        return EPoly.from_poly(Poly.affine(n, [*m.normal] + [0] * n))
    k = rng.choice([1, 2])
    base = [rng.randint(0, 2) for _ in range(n)]
    shift = [b + k * c for b, c in zip(base, m.normal)]
    one = Poly.const(n, 1)
    return EPoly(n, [(tuple(map(Fraction, shift)), one), (tuple(map(Fraction, base)), -one)])


def assert_split_matches_restriction(f: EPoly, hyperplanes) -> int:
    """_certify's split equals the restriction's; returns the certified count."""
    certified, rejected = _certify(f, hyperplanes)
    want = [m for m in hyperplanes if f.restrict(m).is_zero()]
    assert [c.hyperplane for c in certified] == want, (f, hyperplanes)
    assert [r.hyperplane for r in rejected] == [m for m in hyperplanes if m not in want]
    assert all(c.certificate == CERTIFIED for c in certified)
    assert all(r.reason == REJECTED for r in rejected)
    return len(certified)


def test_split_matches_restriction_on_seeded_inputs():
    rng = random.Random(14)
    certified = 0
    for n in range(1, 5):
        for _ in range(60):
            f = rand_epoly(rng, n, max_terms=4)
            planes = sorted({rand_normal(rng, n) for _ in range(4)})
            if rng.random() < 0.5:
                f = f * vanishing_factor(rng, planes[0])
            certified += assert_split_matches_restriction(f, planes)
    assert certified >= 80, certified


def test_split_matches_restriction_on_candidate_families():
    # As classify_codim1 calls it: the candidates of p, with p sometimes a product
    # with a factor u^d - u^d' that vanishes on one of them.
    rng = random.Random(7)
    certified = 0
    for n in range(1, 5):
        for _ in range(30):
            p = rand_nonzero_poly(rng, n, max_terms=4)
            if rng.random() < 0.5:
                d = [rng.randint(0, 2) for _ in range(n)]
                e = [rng.randint(0, 2) for _ in range(n)]
                if d != e:
                    p = p * Poly(n, [((0,) * n + tuple(d), 1), ((0,) * n + tuple(e), -1)])
            cand = candidate_hyperplanes(p)
            certified += assert_split_matches_restriction(EPoly.from_poly(p), list(cand))
    assert certified >= 20, certified


def test_zero_at_the_point_falls_back_to_restriction_and_rejects():
    # f = (x_j - c) * g with c the point's x_j, for a coordinate j other
    # than the pivot: f is zero at the point but not on the hyperplane,
    # where x_j takes every value.
    rng = random.Random(3)
    for n in range(2, 5):
        for _ in range(10):
            m = rand_normal(rng, n)
            point = _point_on(m)
            assert sum(c * v for c, v in zip(m.normal, point)) == 0
            pivot = next(k for k, c in enumerate(m.normal) if c)
            j = rng.choice([k for k in range(n) if k != pivot])
            form = [0] * (2 * n)
            form[j] = 1
            line = EPoly.from_poly(Poly.affine(n, form, -point[j]))
            g = rand_epoly(rng, n)
            while g.restrict(m).is_zero():
                g = rand_epoly(rng, n)
            f = line * g
            assert not f.scaled_groups(point)
            with CountingRestrict() as counter:
                certified, rejected = _certify(f, [m])
            assert counter.calls == 1 and certified == []
            assert [(r.hyperplane, r.reason) for r in rejected] == [(m, REJECTED)]
            assert not f.restrict(m).is_zero()


def test_wrong_dimension_raises_like_restrict():
    f = EPoly.from_poly(Poly.affine(2, [1, 0, 0, 1]))
    for m in (Hyperplane((1, 0, 0)), Hyperplane((1,))):
        messages = []
        for call in (lambda: f.restrict(m), lambda: _certify(f, [m])):
            try:
                call()
            except DimensionError as exc:
                messages.append(str(exc))
        assert len(messages) == 2 and messages[0] == messages[1], messages


def test_classify_restricts_once_per_certified_hyperplane():
    # (u1 - u2) vanishes on x1 = x2 and (u2 - u3^2) on x2 = 2 x3.
    p = parse_poly("(u1 - u2)*(u2 - u3^2)*(x1 + x3 + u1*u3 + 1)", 3)
    with CountingRestrict() as counter:
        rep = classify_codim1(p, assume_irreducible=True, assume_codim1=True)
    normals = [c.hyperplane.normal for c in rep.hyperplanes]
    assert (1, -1, 0) in normals and (0, 1, -2) in normals
    assert counter.calls == len(rep.hyperplanes) and len(rep.rejected) > len(rep.hyperplanes)


if __name__ == "__main__":
    run_standalone(globals())
