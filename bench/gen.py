"""Seeded inputs for the three workloads, with the checks for their reports.

Every input is generated as a reference term map (refeval.TermPoly) and
printed as text; the program sees only the text.  Structure is planted so
that the right answer is known by construction:

- a hyperplane {d . x = 0} is planted as (d . x) * A + (u^d+ - u^d-) * B;
- products are multiplied out of known factors;
- slices are products of Eisenstein factors (irreducible by the criterion)
  or Swinnerton-Dyer polynomials;
- one-variable inputs A0(x) + A1(x) e^(s x) get their exact root set from
  refeval.OneVar.

Inputs whose answer would show a known program fault are not drawn at
random: each fault has one fixed input, so the reports that fail are the
same in every run, whatever the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import check
from refeval import OneVar, TermPoly, candidate_normals, primitive_normal, sd_polynomial

BOX = ((-2.0, 2.0), (-2.0, 2.0))

# Fixed inputs that show the two known faults (see README.md).
ROOT_SET_FAULT = "x1^7 - 3*x1 + 1 - u1"
IRREDUCIBLE_FAULT = "(x1 + u2 - 1)*(x2 + u3 + 1)"
HUNT_PRODUCT = "(x1*u2 + 2*x2 + 3)*(x3*u1 + x1 + 5)"


@dataclass
class Case:
    label: str
    argv: list[str]
    check: Callable[[dict, list], str | None]  # (result, hypothesisLog) -> fault or None


def result_check(fn, **kwargs):
    """A Case.check calling fn(result, **kwargs); fn does not read the log."""
    return lambda result, log: fn(result, **kwargs)


def cli_args(command: str, text: str, n: int, *flags: str) -> list[str]:
    # "--" keeps a leading minus from being read as an option; --ambient keeps
    # an input that leaves out its highest variables in its own dimension.
    return [command, *flags, "--ambient", str(n), "--", text]


NONZERO = [k for k in range(-5, 6) if k]


def rand_poly(rng, n, terms, xvars, uvars, xdeg=2) -> TermPoly:
    """Random sparse polynomial over the given 1-based x- and u-variables."""
    out = TermPoly(n)
    for _ in range(20 * terms):  # bounded: few monomials may exist
        if len(out.terms) >= terms:
            break
        ex = [0] * n
        eu = [0] * n
        for _ in range(rng.randint(0, xdeg)):
            ex[rng.choice(xvars) - 1] += 1
        if uvars and rng.randint(0, 1):
            eu[rng.choice(uvars) - 1] += 1
        out = out + TermPoly(n, {(tuple(ex), tuple(eu)): rng.choice(NONZERO)})
    return out


def pos_poly(rng, n, terms, coef=5, xpow=True) -> TermPoly:
    """A positive function: a positive constant plus terms c x^(2a) u^b, c > 0."""
    out = TermPoly.const(n, rng.randint(1, coef))
    for _ in range(terms):
        ex = [2 * rng.randint(0, 1) * xpow for _ in range(n)]
        eu = [rng.randint(0, 1) for _ in range(n)]
        out = out + TermPoly(n, {(tuple(ex), tuple(eu)): rng.randint(1, coef)})
    return out


def planted(rng, n, d, a_terms, b_terms, uvars=None, xdeg=2, positive=False, xpow=True) -> tuple[TermPoly, str]:
    """(d . x) * A + (u^d+ - u^d-) * B, which vanishes on {d . x = 0}.

    Both products have the sign of d . x, so with A, B > 0 (``positive``)
    the zero set is exactly the hyperplane.  With ``a_terms`` = 0, A is a
    constant and B is free of the first variable x_i with d_i != 0: the
    input then has degree 1 in x_i with a constant coefficient, so it is
    irreducible and the oracle never falls through to its divisor hunt.
    """
    pivot = next(i for i, e in enumerate(d) if e) + 1
    xs = [j for j in range(1, n + 1) if a_terms or j != pivot]
    us = uvars or list(range(1, n + 1))
    if positive:
        a, b = pos_poly(rng, n, a_terms, xpow=xpow), pos_poly(rng, n, b_terms, xpow=xpow)
    elif a_terms:
        a = rand_poly(rng, n, a_terms, xs, us, xdeg=xdeg)
        b = rand_poly(rng, n, b_terms, xs, us, xdeg=xdeg)
    else:
        # B = u^e1 * B1 + u^e2 * B2 with two distinct u-monomials and B1, B2
        # free of u: the input has 5 u-exponent vectors, so a steady number
        # of candidate hyperplanes.
        a = TermPoly.const(n, rng.choice(NONZERO))
        b = TermPoly(n)
        for j in rng.sample([0] + us, 2):
            mono = TermPoly.var(n, "u", j) if j else TermPoly.const(n, 1)
            b = b + mono * rand_poly(rng, n, b_terms, xs, [], xdeg=xdeg)
    z = (0,) * n
    lin = TermPoly(n, {(tuple(int(i == j) for j in range(n)), z): e for i, e in enumerate(d) if e})
    plus = tuple(max(e, 0) for e in d)
    minus = tuple(max(-e, 0) for e in d)
    binom = TermPoly(n, {(z, plus): 1}) - TermPoly(n, {(z, minus): 1})
    text = f"({lin.text()})*({a.text()}) + ({binom.text()})*({b.text()})"
    return lin * a + binom * b, text


def rand_normal(rng, n, nonzero) -> tuple[int, ...]:
    """Primitive normal with ``nonzero`` entries drawn from -2..2."""
    d = [0] * n
    for i in rng.sample(range(n), nonzero):
        d[i] = rng.choice([-2, -1, 1, 2])
    return primitive_normal(d)


def planted_with_normal(rng, n, d, a_terms, b_terms, **kw) -> tuple[TermPoly, str]:
    """planted(), drawn again until d survives as a candidate normal."""
    while True:
        p, text = planted(rng, n, d, a_terms, b_terms, **kw)
        if d in candidate_normals(p):
            return p, text


# ---------------------------------------------------------------------------
# cells2d: quadtree zero cells on the float backend
# ---------------------------------------------------------------------------

# (terms of A and of B, depth): about 8, 12, 16 and 24 terms once expanded.
CELLS_SAMPLE2D = [(1, 8), (2, 8), (3, 7), (6, 7)]
CELLS_CLASSIFY = 45
PLANE_NORMALS_2D = [(1, 0), (0, 1), (1, -1), (1, 1), (1, -2), (2, -1), (1, 2), (2, 1)]


def cells2d(seed: int) -> list[Case]:
    rng = random.Random(f"cells2d:{seed}")
    cases = [Case("verify-paper", ["verify-paper"], result_check(check.check_verify_paper))]
    normals = rng.sample(PLANE_NORMALS_2D, len(CELLS_SAMPLE2D))
    for d, (size, depth) in zip(normals, CELLS_SAMPLE2D):
        p, text = planted_with_normal(rng, 2, d, size, size, positive=True)
        cases.append(Case(
            f"sample2d d={depth}",
            cli_args("sample2d", text, 2, "--depth", str(depth)),
            result_check(check.check_cells, p=p, box=BOX, depth=depth, planted=[d], seed=rng.getrandbits(32)),
        ))
    # Each normal equally often: the quadtree's cost follows the direction.
    for k in range(CELLS_CLASSIFY):
        d = PLANE_NORMALS_2D[k % len(PLANE_NORMALS_2D)]
        p, text = planted_with_normal(rng, 2, d, 0, 1, positive=True, xpow=False)
        cases.append(Case(
            "classify n=2",
            cli_args("classify", text, 2),
            partial(check.check_classify, p=p, planted=[d], reducible=False, seed=rng.getrandbits(32)),
        ))
    return cases




# ---------------------------------------------------------------------------
# exact: rational arithmetic (exp enclosures, exact signs)
# ---------------------------------------------------------------------------

# (degree of A0, degree of A1, s, real roots) for f = A0(x) + A1(x) e^(s x):
# a report's cost follows its number of roots, so every round has the same mix.
EXACT_SHAPES = [
    (d0, d1, s, k)
    for d0, d1, s in [(1, 1, 1), (2, 0, 2), (3, 1, 1), (4, 0, 1), (5, 1, 2), (3, 2, 1)]
    for k in (1, 2, 3)
    if k <= d0
] * 3
EXACT_DOMAIN = 6  # every seeded root lies in (-6, 6): roots runs on [-6, 6]
EXACT_FINE_ROOTS = 4  # the first 1-root inputs also run roots --tol 1e-40
# (normal, depth) of the rigorous quadtrees; A and B are positive constants.
EXACT_RIGOROUS = [((2, 1), 4), ((1, 0), 4), ((1, 2), 3), ((0, 1), 3)]


def dense_poly(rng, deg: int, s: int) -> TermPoly:
    """Random c_0 + ... + c_deg x^deg (c_deg != 0) times u1^s."""
    terms = {((deg,), (s,)): rng.choice(NONZERO)}
    for e in range(deg):
        terms[((e,), (s,))] = rng.randint(-5, 5)
    return TermPoly(1, terms)


def one_var(rng, deg0: int, deg1: int, s: int, count: int) -> tuple[TermPoly, list]:
    """A0(x) + A1(x) e^(s x) with ``count`` simple, well separated roots in (-6, 6).

    At least one root is nonzero, and every root lies inside the program's
    default search domain, which is never narrower than [-8, 8].  Returns
    (p, reference roots).
    """
    grid = [EXACT_DOMAIN * ((k + 0.5) / 120 - 1) for k in range(240)]
    while True:
        p = dense_poly(rng, deg0, 0) + dense_poly(rng, deg1, s)
        # Cheap float pre-filter; the exact root set below decides.
        terms = [(float(c), ex[0], eu[0]) for (ex, eu), c in p.terms.items()]
        vals = [sum(c * x**a * math.exp(b * x) for c, a, b in terms) for x in grid]
        if sum(1 for v, w in zip(vals, vals[1:]) if v * w < 0) != count:
            continue
        try:
            roots = OneVar(p).roots()
        except ValueError:  # A0, A1 share a root, or f is near zero at a critical point
            continue
        if len(roots) != count or not any(roots) or any(abs(r) >= EXACT_DOMAIN for r in roots):
            continue
        if any(b - a < Fraction(1, 1000) for a, b in zip(roots, roots[1:])):
            continue
        if 0 in roots and abs(p.diff(1).value([0])[0]) < 1e-6:
            continue
        return p, roots


def exact(seed: int) -> list[Case]:
    rng = random.Random(f"exact:{seed}")
    cases = []
    fine = 0
    for shape in EXACT_SHAPES:
        p, roots = one_var(rng, *shape)
        lo, hi = -EXACT_DOMAIN, EXACT_DOMAIN
        text = p.text()
        domain = ("--domain", str(lo), str(hi))
        check_roots = result_check(check.check_roots, p=p, ref_roots=roots, domain=(lo, hi))
        cases.append(Case("roots", cli_args("roots", text, 1, *domain), check_roots))
        if len(roots) == 1 and fine < EXACT_FINE_ROOTS:
            # Refining to 1e-40 takes exact signs past 96 bits of exp precision.
            fine += 1
            cases.append(Case("roots fine", cli_args("roots", text, 1, *domain, "--tol", "1e-40"), check_roots))
        cases.append(Case("transversal", cli_args("transversal", text, 1, *domain), result_check(check.check_transversal, p=p, ref_roots=roots)))
        for command in ("classify", "classify1e"):
            cases.append(Case(command + " n=1", cli_args(command, text, 1), partial(check.check_classify_1var, p=p, ref_roots=roots)))
    # The 1-variable drivers search the default domain only and call what they
    # find the whole zero set; this input has a root outside it.
    fault = TermPoly(1, {((7,), (0,)): 1, ((1,), (0,)): -3, ((0,), (0,)): 1, ((0,), (1,)): -1})
    fault_roots = OneVar(fault).roots()
    for command in ("classify", "classify1e"):
        cases.append(Case(command + " fault", cli_args(command, ROOT_SET_FAULT, 1),
                          partial(check.check_classify_1var, p=fault, ref_roots=fault_roots)))
    for d, depth in EXACT_RIGOROUS:
        p, text = planted_with_normal(rng, 2, d, 0, 0, positive=True)
        cases.append(Case(
            f"sample2d rigorous d={depth}",
            cli_args("sample2d", text, 2, "--rigorous", "--depth", str(depth)),
            result_check(check.check_cells, p=p, box=BOX, depth=depth, planted=[d], seed=rng.getrandbits(32), grid=32),
        ))
    return cases





# ---------------------------------------------------------------------------
# symbolic: restriction, Poly arithmetic, the oracle, factorization
# ---------------------------------------------------------------------------

# Counts put the median and the 75th percentile of a round's report times
# inside the cluster of planted classify reports (about two thirds of a
# round, with a third cheaper reports below it and 6 dearer ones above),
# where report times lie dense; near a cluster's edge a percentile jumps
# with the seed.
SYM_PLANTED = 112  # classify each
SYM_HYPERPLANES = 48  # of those, also through hyperplanes
SYM_U1 = 12  # classify1e each
SYM_PRODUCTS = 2
SYM_WIDE = 1  # products on 6 or more active variables
SYM_EISENSTEIN = 4


def _nonlinear_irreducible(rng, n, xi, uj, others) -> TermPoly:
    """x_i * u_j + (linear form in the other x's) + c, with c != 0.

    Degree 1 in u_j with coprime coefficients, so irreducible, and of total
    degree 2, so no linear form divides it.  The fixed shape keeps the
    oracle's divisor hunt on products of two such factors at a steady cost.
    """
    out = TermPoly.var(n, "x", xi) * TermPoly.var(n, "u", uj) + TermPoly.const(n, rng.choice(NONZERO))
    for k in others:
        out = out + TermPoly.var(n, "x", k) * TermPoly.const(n, rng.choice(NONZERO))
    return out


def eisenstein(rng, deg: int) -> tuple[list[Fraction], bool]:
    """Monic Eisenstein polynomial of degree ``deg`` and whether it has a real root."""
    p = rng.choice([2, 3, 5, 7])
    unit = rng.choice([k for k in range(1, 4) if k % p])
    if deg % 2:
        mid = [p * rng.randint(-2, 2) for _ in range(deg - 1)]
        return [Fraction(rng.choice([-1, 1]) * p * unit)] + [Fraction(c) for c in mid] + [Fraction(1)], True
    if rng.random() < 0.5:
        # Even powers with positive coefficients: no real root.
        coeffs = [p * unit] + [p * rng.randint(0, 2) if k % 2 == 0 else 0 for k in range(1, deg)]
        return [Fraction(c) for c in coeffs] + [Fraction(1)], False
    mid = [p * rng.randint(-2, 2) for _ in range(deg - 1)]
    return [Fraction(-p * unit)] + [Fraction(c) for c in mid] + [Fraction(1)], True


def in_x2(coeffs, n) -> TermPoly:
    z = (0,) * n
    return TermPoly(n, {(tuple(e if j == 1 else 0 for j in range(n)), z): c for e, c in enumerate(coeffs)})


def _slice_input(rng, n, s: TermPoly, s_text: str) -> tuple[TermPoly, str]:
    """S(x2) + x1 * Q + (u1 - 1) * R: the slice {x1 = 0, u1 = 1} is S.

    Q is a constant and R is free of x1, so the input has degree 1 in x1
    with a constant coefficient and is irreducible.
    """
    q = TermPoly.const(n, rng.choice(NONZERO))
    r = rand_poly(rng, n, rng.randint(1, 3), list(range(2, n + 1)), [1])
    u1_minus_1 = TermPoly.var(n, "u", 1) - TermPoly.const(n, 1)
    p = s + TermPoly.var(n, "x", 1) * q + u1_minus_1 * r
    return p, f"{s_text} + x1*({q.text()}) + (u1 - 1)*({r.text()})"


def symbolic(seed: int) -> list[Case]:
    rng = random.Random(f"symbolic:{seed}")
    cases = []

    def cls(label, p, text, n, planted, reducible):
        cases.append(Case(label, cli_args("classify", text, n),
                          partial(check.check_classify, p=p, planted=planted, reducible=reducible, seed=rng.getrandbits(32))))

    for k in range(SYM_PLANTED):
        # One size for all: their costs then form one narrow cluster.
        n = 3 + k % 2
        d = rand_normal(rng, n, rng.randint(1, n))
        p, text = planted_with_normal(rng, n, d, 0, 2)
        cls(f"classify n={n}", p, text, n, [d], False)
        if k < SYM_HYPERPLANES:
            cases.append(Case(f"hyperplanes n={n}", cli_args("hyperplanes", text, n), result_check(check.check_hyperplanes, p=p)))
    for k in range(SYM_U1):
        n = 3 + k % 2
        d = (1,) + (0,) * (n - 1)
        p, text = planted_with_normal(rng, n, d, 0, 1 + k % 2, uvars=[1])
        cases.append(Case(f"classify1e n={n} x1=0", cli_args("classify1e", text, n),
                          result_check(check.check_classify1e, p=p, slice_factors=None, slice_zero=True, seed=rng.getrandbits(32))))
    for k in range(SYM_PRODUCTS):
        n = 3 + k % 2
        # Six or more active variables: the oracle skips its divisor hunt,
        # whose cost on these products swings from 0.05 to 5 s.
        while True:
            d1, d2 = rand_normal(rng, n, 1), rand_normal(rng, n, 2)
            p1, t1 = planted_with_normal(rng, n, d1, 1, 2, xdeg=1)
            p2, t2 = planted_with_normal(rng, n, d2, 1, 2, xdeg=1)
            if len((p1 * p2).active()) >= 6:
                break
        cls(f"product n={n} planted", p1 * p2, f"({t1})*({t2})", n, sorted({d1, d2}), True)
    for _ in range(SYM_WIDE):
        f1 = _nonlinear_irreducible(rng, 4, 1, 2, [2, 3])
        f2 = _nonlinear_irreducible(rng, 4, 3, 4, [1, 4])
        cls("product n=4 active=6", f1 * f2, f"({f1.text()})*({f2.text()})", 4, [], True)
    # One fixed product on 5 active variables with no linear factor: the
    # oracle's whole divisor hunt (about 1.1 s, half a round), kept the
    # same for every seed so that its cost does not move with the seed.
    x, u, c = (lambda i: TermPoly.var(3, "x", i)), (lambda i: TermPoly.var(3, "u", i)), (lambda v: TermPoly.const(3, v))
    f1, f2 = x(1) * u(2) + x(2) * c(2) + c(3), x(3) * u(1) + x(1) + c(5)
    cls("product n=3 active=5", f1 * f2, HUNT_PRODUCT, 3, [], True)
    fault = TermPoly.var(3, "x", 1) + TermPoly.var(3, "u", 2) - TermPoly.const(3, 1)
    fault = fault * (TermPoly.var(3, "x", 2) + TermPoly.var(3, "u", 3) + TermPoly.const(3, 1))
    cls("product fault", fault, IRREDUCIBLE_FAULT, 3, [], True)

    for k in range(SYM_EISENSTEIN):
        n = 3 + k % 2
        # Degrees 1, 2, 3 with multiplicities 1, 2, 1: a slice of degree 8.
        factors = []
        for deg, mult in ((1, 1), (2, 2), (3, 1)):
            f, real = eisenstein(rng, deg)
            factors.append((f, mult, real))
        s = TermPoly.const(n, 1)
        for f, m, _ in factors:
            s = s * in_x2(f, n) ** m
        text = "*".join(f"({in_x2(f, n).text()})" + (f"^{m}" if m > 1 else "") for f, m, _ in factors)
        p, full = _slice_input(rng, n, s, text)
        cases.append(Case(f"classify1e n={n} eisenstein", cli_args("classify1e", full, n),
                          result_check(check.check_classify1e, p=p, slice_factors=factors, slice_zero=False, seed=rng.getrandbits(32))))
    for primes in ((2, 3, 5), (2, 3, 5, 7)):
        sd = sd_polynomial(primes)
        p, full = _slice_input(rng, 3, in_x2(sd, 3), in_x2(sd, 3).text())
        cases.append(Case(f"classify1e swinnerton-dyer deg={len(sd) - 1}", cli_args("classify1e", full, 3),
                          result_check(check.check_classify1e, p=p, slice_factors=[(sd, 1, True)], slice_zero=False, seed=rng.getrandbits(32))))
    return cases




WORKLOADS = {"cells2d": cells2d, "exact": exact, "symbolic": symbolic}
