"""Decomposition drivers for zero sets of exponential polynomials.

``classify_codim1`` handles the general case: it checks the hypotheses
(irreducibility of the defining algebraic set, codimension 1 of the zero
set), builds the candidate hyperplane family from the u-monomial spectrum,
and certifies symbolically which candidates lie inside the zero set.  Inputs
with at most one u-exponent vector go to ``_classify_degenerate``: their zero
set is algebraic in x.

``classify_single_exp`` is the dedicated single-exponential driver: it
additionally computes the exact slice {x1 = 0, u1 = 1} of the defining
polynomial and, when that slice is univariate, splits it into components by
exact factorization.  Its analysis is independent of Schanuel's conjecture.

The hypothesis dim Z(f) = n-1 is verified with one variable by the root
isolator on its default domain (a root or a tangential leftover), and with
two by a certified sign change: exact signs f(a) < 0 < f(b) at two rational
grid points, so that Z(f) separates the plane.  Otherwise, and always with
three or more variables, it is unverified unless asserted.

All three drivers take their verdict, its conditionality and the residual
from one rule, ``_verdict``.  With one variable the zero set is the certified
root list, an irreducible set once the irreducibility premise is verified or
asserted and a root was found.  Otherwise a certified hyperplane gives
HyperplaneComponents, and IrreducibleSet needs a verified or asserted premise
and no slice component with real points; every other case is Inconclusive.
The label is ConditionalOnAssertedHypotheses once any logged hypothesis is
asserted, unverified or failed.  Otherwise it is the driver's base level:
ConditionalOnSchanuel for the candidate family of an input with two or more
exponentials, Unconditional for single-exponential and algebraic zero sets.

``irreducibility_oracle`` is a heuristic certifier for polynomial
irreducibility over Q: reducibility witnesses are exact divisors (verified),
irreducibility certificates come from full-degree specializations to
rational lines whose univariate image is irreducible.  A polynomial in one
variable v is factored as it is, its image on the line v = t; otherwise the
lines come from one fixed sequence, ``random.Random(0)``, so they depend on
the ambient n and the attempt budget alone, and a linear divisor is proved
by substitution (``divides_linear``).  Polynomial irreducibility over Q is
neither necessary nor sufficient for the irreducibility of the real zero
set, so oracle outcomes are recorded in the hypothesis log rather than
treated as proof.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product
from math import gcd
from operator import mul
from typing import NamedTuple

from .epoly import EPoly
from .errors import DimensionError, DriverError, HypothesisViolation
from .factor import (
    count_real_roots,
    dense_to_poly,
    dmul,
    dtrim,
    factor_dense,
    factor_univariate,
    over_common_denominator,
    poly_to_dense,
)
from .hyperplanes import Hyperplane, candidate_hyperplanes
from .numeric import RootCert, certified_sign_change, default_root_domain, isolate_roots_1d
from .parsing import format_poly
from .poly import Poly, var_name, var_pos

# Conditionality levels, ordered from strongest statement to weakest.
UNCONDITIONAL = "Unconditional"
CONDITIONAL_SCHANUEL = "ConditionalOnSchanuel"
CONDITIONAL_ASSERTED = "ConditionalOnAssertedHypotheses"

IRREDUCIBLE_SET = "IrreducibleSet"
HYPERPLANE_COMPONENTS = "HyperplaneComponents"
INCONCLUSIVE = "Inconclusive"


class IrredVerdict(NamedTuple):
    """Outcome of the irreducibility oracle."""

    status: str  # Irreducible | Reducible | Unknown
    witness: str = ""
    factor: Poly | None = None  # exact divisor, present for Reducible
    # certifying line (a, b) of an Irreducible verdict of degree >= 2:
    # variable i -> a_i t + b_i; in one variable v it is v = t
    line: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None


class HypothesisCheck(NamedTuple):
    name: str
    status: str  # verified | asserted | unverified | failed
    detail: str = ""


class CertifiedHyperplane(NamedTuple):
    hyperplane: Hyperplane
    certificate: str


class RejectedCandidate(NamedTuple):
    hyperplane: Hyperplane
    reason: str


class SliceComponent(NamedTuple):
    """One irreducible factor of the exact slice polynomial p(0, x', 1)."""

    factor: Poly
    multiplicity: int
    real_points: bool


class ComponentReport(NamedTuple):
    verdict: str
    conditionality: str
    hyperplanes: list[CertifiedHyperplane]
    rejected: list[RejectedCandidate]
    residual: str
    hypothesis_log: list[HypothesisCheck]
    notes: list[str]
    degenerate: bool = False
    roots: list[RootCert] | None = None
    slice_components: list[SliceComponent] | None = None
    slice_identically_zero: bool | None = None


# ---------------------------------------------------------------------------
# Irreducibility oracle
# ---------------------------------------------------------------------------


def _poly_nth_root(p: Poly, k: int) -> Poly | None:
    """Exact k-th root if p is a perfect k-th power, else None (verified)."""
    mono, c = p.leading_term()
    if any(e % k for e in mono):
        return None
    num = _int_nth_root(c.numerator, k)
    den = _int_nth_root(c.denominator, k)
    if num is None or den is None:
        return None
    q = Poly(p.n, {tuple(e // k for e in mono): Fraction(num, den)})
    limit = k * len(p.terms) + 16
    for _ in range(limit):
        r = p - q**k
        if r.is_zero():
            return q
        lead_r, c_r = r.leading_term()
        lead_q, c_q = q.leading_term()
        # Next Newton term: LT(r) / (k LT(q)^(k-1)).
        diff = tuple(a - b * (k - 1) for a, b in zip(lead_r, lead_q))
        if min(diff, default=0) < 0:
            return None
        coeff = c_r / (k * c_q ** (k - 1))
        q = q + Poly(p.n, {diff: coeff})
    return None


def _int_nth_root(v: int, k: int) -> int | None:
    if v < 0:
        if k % 2 == 0:
            return None
        r = _int_nth_root(-v, k)
        return None if r is None else -r
    if v in (0, 1):
        return v
    lo, hi = 1, 1 << ((v.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == v else None


def divides_linear(p: Poly, d: Poly) -> bool:
    """Whether the affine form d (total degree 1) divides p exactly.

    Write d = c v + r with v d's first variable and c != 0.  Over the other
    variables, dividing p by d as a polynomial in v leaves the remainder
    p(-r / c) (the remainder theorem), so d divides p exactly when that
    substitution makes p the zero polynomial.
    """
    if p.n != d.n:
        raise DimensionError(f"ambient mismatch: {p.n} != {d.n}")
    if d.total_degree() != 1:
        raise ValueError("divides_linear needs a divisor of total degree 1")
    n = p.n
    coeffs = [Fraction(0)] * (2 * n)
    for m, c in d.terms.items():
        if any(m):
            coeffs[m.index(1)] = c
    pivot = next(j for j, c in enumerate(coeffs) if c)
    c_v = coeffs[pivot]
    rest = [-c / c_v for c in coeffs]
    rest[pivot] = 0
    const = -d.terms.get((0,) * (2 * n), 0) / c_v
    return p.substitute_affine(*var_name(n, pivot), rest, const).is_zero()


#: coefficient bound of the divisor hunt's affine forms, and the most active
#: variables it hunts in
_HUNT_HEIGHT = 2
_HUNT_MAX_ACTIVE = 5


def _linear_candidates(p: Poly, lines):
    """Primitive affine forms c.v + c0 in the active variables with small
    coefficients that pass every line, as each divisor of p does, in
    ``iter_product`` order of (c, c0): c is enumerated, c0 solved per line."""
    active = sorted(p.variables_used())
    if not active or len(active) > _HUNT_MAX_ACTIVE:
        return
    span = range(-_HUNT_HEIGHT, _HUNT_HEIGHT + 1)
    n = p.n
    pos = [var_pos(n, kind, idx) for kind, idx in active]
    filters = [([A[j] for j in pos], [B[j] for j in pos], l, roots) for A, B, l, roots in lines]
    for coeffs in iter_product(span, repeat=len(active)):
        if next((c for c in coeffs if c), 0) <= 0:
            continue  # zero, or not the sign-canonical representative
        consts = set(span)
        for f in filters:
            consts &= _allowed_constants(coeffs, f, span)
            if not consts:
                break
        form = [0] * (2 * n)
        for j, c in zip(pos, coeffs):
            form[j] = c
        for const in sorted(consts):
            if gcd(*coeffs, const) == 1:
                yield Poly.affine(n, form, const)


def _line_filter(A: list[int], B: list[int], l: int, factors) -> tuple:
    """What the divisor hunt keeps of a line whose image it has factored.

    A divisor L = c.v + c0 of p restricts on the line v = (A t + B) / l to
    a divisor alpha t + beta of the line's image, which is nonzero.  So
    either alpha = 0 and beta != 0, or -beta/alpha is a rational root of the
    image, that is -g0/g1 for a linear factor [g0, g1] of the factorization
    (``[0, 1]`` included).  The filter is
    (A, B, l, [(-g0, g1) for each linear factor]).
    """
    return A, B, l, [(-g[0], g[1]) for g, _ in factors if len(g) == 2]


def _allowed_constants(coeffs, line_filter, span: range) -> set[int]:
    """The c0 in ``span`` for which c.v + c0 restricts on the line to a
    divisor of its image.  Over integers, alpha = c.A / l and
    beta = (c0 l + c.B) / l.  If c.A = 0, every c0 but -c.B / l passes;
    otherwise each root r0/r1 of the image fixes c0 by the root test
    (c.A) r0 + (c0 l + c.B) r1 = 0, if that c0 is an integer."""
    A, B, l, roots = line_filter
    alpha = sum(map(mul, coeffs, A))
    beta = sum(map(mul, coeffs, B))
    if not alpha:
        return {c0 for c0 in span if c0 * l + beta}
    solved = (divmod(-(alpha * r0 + beta * r1), l * r1) for r0, r1 in roots)
    return {c0 for c0, r in solved if not r and c0 in span}


def _specialize_to_line(p: Poly, C: list[int], A: list[int], B: list[int], l: int) -> list[int]:
    """Dense integer multiple of the univariate image of p under every
    variable -> (A_i t + B_i) / l.

    With p's coefficients C_m / D and d the total degree of p, the image is
    S(t) / (D l^d) for the integer polynomial
    S = sum_m C_m l^(d - |m|) prod_i (A_i t + B_i)^m_i, summed from one power
    table of A_i t + B_i per variable; S is returned.
    """
    deg = p.total_degree()
    l_pow = [l**k for k in range(deg + 1)]
    tables: list[list[list[int]]] = [[[1]] for _ in A]
    acc = [0] * (deg + 1)
    for mono, c in zip(p.terms, C):
        term = [c * l_pow[deg - sum(mono)]]
        for i, e in enumerate(mono):
            if e:
                table = tables[i]
                while len(table) <= e:
                    table.append(dmul(table[-1], [B[i], A[i]]))
                term = dmul(term, table[e])
        for k, v in enumerate(term):
            acc[k] += v
    return dtrim(acc)


def irreducibility_oracle(p: Poly, attempts: int = 8) -> IrredVerdict:
    """Heuristic irreducibility certifier for polynomials over Q.

    Reducible verdicts always carry an exact divisor.  Irreducible verdicts
    record the certifying line: the specialization preserves the total
    degree and its univariate image is irreducible over Q, so any nontrivial
    factorization of p would specialize to one of the image.  A polynomial
    in one variable v is its own full-degree image on the line v = t, so
    ``factor_dense`` decides it: if it factors, its first factor of lowest
    degree is the divisor.  Otherwise the lines are drawn from
    ``random.Random(0)``, afresh for every call, so every input of one
    ambient n meets the same lines in the same order: a certificate holds
    on any full-degree line, so nothing needs lines that depend on p.  When
    none certifies, the oracle hunts for an exact divisor among the small
    primitive linear forms.  It keeps the rational roots of every
    full-degree image it factored and checks only the forms whose
    restriction to each such line divides the image (a factor of p
    restricts to a factor of every specialization), so every divisor is
    still tried, in the same order; each line's roots fix the constant
    terms that pass, which are solved for instead of enumerated.  A form
    divides p when p vanishes on its zero set (``divides_linear``).
    Without a divisor the verdict is Unknown.  ``attempts`` must be at
    least 1.
    """
    if attempts < 1:
        raise ValueError("the oracle needs at least one attempt")
    if p.is_zero() or p.is_constant():
        raise HypothesisViolation("irreducibility is undefined for constants")
    deg = p.total_degree()
    if deg == 1:
        return IrredVerdict("Irreducible", witness="linear polynomial")

    content = p.monomial_content()
    if any(content):
        if len(p.terms) == 1:
            # A single monomial of degree >= 2 splits off any one variable.
            kind, idx = sorted(p.variables_used())[0]
            return IrredVerdict(
                "Reducible", witness="monomial of degree >= 2", factor=Poly.var(p.n, kind, idx)
            )
        kind, idx = var_name(p.n, next(j for j, e in enumerate(content) if e))
        return IrredVerdict(
            "Reducible", witness=f"common factor {kind}{idx}", factor=Poly.var(p.n, kind, idx)
        )

    for k in (2, 3, 5, 7):
        if deg % k == 0 and deg >= k:
            root = _poly_nth_root(p, k)
            if root is not None:
                return IrredVerdict(
                    "Reducible", witness=f"perfect {k}-th power", factor=root
                )

    active = sorted(p.variables_used())
    if len(active) == 1:
        # On the line v = t the image is p's own coefficients.
        [(kind, idx)] = active
        image, _ = over_common_denominator(poly_to_dense(p)[1])
        factors = factor_dense(image)
        if len(factors) == 1 and factors[0][1] == 1:
            a = [Fraction(0)] * (2 * p.n)
            a[var_pos(p.n, kind, idx)] = Fraction(1)
            return IrredVerdict(
                "Irreducible",
                witness="full-degree line specialization with irreducible image",
                line=(tuple(a), (Fraction(0),) * (2 * p.n)),
            )
        return IrredVerdict(
            "Reducible",
            witness="a factor of a full-degree line image, mapped back "
            "through the line (one variable)",
            factor=dense_to_poly(min((g for g, _ in factors), key=len), p.n, kind, idx),
        )

    C, _ = over_common_denominator(list(p.terms.values()))
    rng = random.Random(0)
    lines = []  # a _line_filter for each full-degree image that factored
    for _ in range(attempts):
        a = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2 * p.n)]
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2 * p.n)]
        if all(v == 0 for v in a):
            continue
        AB, l = over_common_denominator(a + b)
        A, B = AB[: 2 * p.n], AB[2 * p.n :]
        image = _specialize_to_line(p, C, A, B, l)
        if len(image) - 1 != deg:
            continue  # degenerate direction; draw again
        factors = factor_dense(image)
        nontrivial = [(g, m) for g, m in factors if len(g) > 1]
        if len(nontrivial) == 1 and nontrivial[0][1] == 1 and len(nontrivial[0][0]) - 1 == deg:
            return IrredVerdict(
                "Irreducible",
                witness="full-degree line specialization with irreducible image",
                line=(tuple(a), tuple(b)),
            )
        lines.append(_line_filter(A, B, l, factors))

    # Every sampled image factored: hunt for an exact divisor among the
    # linear forms that restrict to a divisor of every image.  p has degree
    # >= 2 here, so a linear divisor leaves a nonconstant quotient.
    for cand in _linear_candidates(p, lines):
        if divides_linear(p, cand):
            return IrredVerdict(
                "Reducible", witness="exact division by a small linear form", factor=cand
            )
    return IrredVerdict("Unknown", witness="no certificate within the attempt budget")


# ---------------------------------------------------------------------------
# Hypothesis checks, certificates and the verdict
# ---------------------------------------------------------------------------


def _log_irreducibility(p, assume, attempts, log, name="Z(p) irreducible") -> IrredVerdict | None:
    """Log the hypothesis ``name`` about p; the oracle's verdict, if it ran."""
    if assume:
        log.append(
            HypothesisCheck(name, "asserted", "accepted via flag; user responsibility")
        )
        return None
    verdict = irreducibility_oracle(p, attempts=attempts)
    if verdict.status == "Irreducible":
        log.append(
            HypothesisCheck(
                name,
                "verified",
                "polynomial is irreducible over Q ({}); note this is a proxy for "
                "irreducibility of the real zero set".format(verdict.witness),
            )
        )
    elif verdict.status == "Reducible":
        log.append(HypothesisCheck(name, "failed", f"polynomial factors: {verdict.witness}"))
    else:
        log.append(HypothesisCheck(name, "unverified", verdict.witness))
    return verdict


def _log_codim1(f: EPoly, assume, log) -> list[RootCert] | None:
    """Check/record the hypothesis dim Z(f) = n-1. Returns roots when n = 1.

    n = 1: verified by a certified root of the root isolator.  Without one
    it is unverified: a leftover may only touch zero or hold no root, and the
    default search domain is a heuristic bound, so no root in it does not
    make Z(f) empty.
    n = 2: verified by a certified sign change, f(a) < 0 < f(b) at rational
    points by exact signs (``certified_sign_change``).  Then Z(f) separates
    R^2, and a closed set of dimension 0 does not disconnect the plane, so
    dim Z(f) >= 1; Z(f) is definable in the o-minimal structure R_exp
    (Wilkie), where topological and o-minimal dimension agree.  f is not
    identically zero, so dim Z(f) = 1.  Without a sign change the hypothesis
    is unverified: f may be sign-definite.  n >= 3: no check.
    """
    n = f.n
    if assume:
        log.append(
            HypothesisCheck(
                "dim Z(f) = n-1", "asserted", "accepted via flag; user responsibility"
            )
        )
        return None
    if n == 1:
        lo, hi = domain = default_root_domain(f)
        certs, leftovers = isolate_roots_1d(f, domain)
        if certs:
            log.append(
                HypothesisCheck(
                    "dim Z(f) = n-1",
                    "verified",
                    f"{len(certs)} certified roots on the default search domain",
                )
            )
        else:
            log.append(
                HypothesisCheck(
                    "dim Z(f) = n-1",
                    "unverified",
                    f"no certified root and {len(leftovers)} uncertified leftover "
                    f"intervals on the default search domain [{lo:g}, {hi:g}], a "
                    "heuristic bound that roots may lie beyond",
                )
            )
        return certs
    if n == 2:
        pair = certified_sign_change(f)
        if pair is None:
            log.append(
                HypothesisCheck(
                    "dim Z(f) = n-1",
                    "unverified",
                    "no sign change certified on the rational grid in [-8,8]^2; "
                    "f may be sign-definite, and then its zero set may have "
                    "dimension below n-1",
                )
            )
        else:
            a, b = ("(" + ", ".join(map(str, pt)) + ")" for pt in pair)
            log.append(
                HypothesisCheck(
                    "dim Z(f) = n-1",
                    "verified",
                    f"exact signs f{a} < 0 < f{b}: Z(f) separates R^2, so "
                    "dim Z(f) >= 1 (Z(f) is definable in the o-minimal R_exp); "
                    "f is not identically zero, so dim Z(f) = 1",
                )
            )
        return None
    log.append(
        HypothesisCheck(
            "dim Z(f) = n-1",
            "unverified",
            "no dimension check available for n >= 3; use the assertion flag",
        )
    )
    return None


def _point_on(m: Hyperplane) -> list[Fraction]:
    """One fixed rational point of {m . x = 0}.

    Every coordinate j but the pivot (the first with m_j != 0) is
    (2j + 3)/(5j + 7), small, distinct and not an integer; the pivot is
    solved from m . x = 0.
    """
    normal = m.normal
    pivot = next(j for j, c in enumerate(normal) if c)
    point = [Fraction(2 * j + 3, 5 * j + 7) for j in range(len(normal))]
    rest = sum(c * v for j, (c, v) in enumerate(zip(normal, point)) if j != pivot)
    point[pivot] = Fraction(-rest, normal[pivot])
    return point


def _certify(
    f: EPoly, hyperplanes
) -> tuple[list[CertifiedHyperplane], list[RejectedCandidate]]:
    """Split hyperplanes by the exact certificate: f restricted to one is zero.

    A candidate is refuted first by one exact value: when f is not zero at
    the rational point ``_point_on(m)`` of the hyperplane (the
    ``scaled_ints`` map is nonempty, which by Lindemann-Weierstrass means
    f(point) != 0), the restriction is not zero.  Only a candidate on which
    that value is exactly 0 is restricted, and the restriction is the only
    certificate: a point that happens to be a zero of f decides nothing.  A
    hyperplane of the wrong dimension goes to ``restrict``, which raises.
    """
    certified: list[CertifiedHyperplane] = []
    rejected: list[RejectedCandidate] = []
    for m in hyperplanes:
        refuted = m.dimension == f.n and f.scaled_ints(_point_on(m))[2]
        if not refuted and f.restrict(m).is_zero():
            certified.append(
                CertifiedHyperplane(
                    m, "restriction to the hyperplane is the zero exponential polynomial"
                )
            )
        else:
            rejected.append(
                RejectedCandidate(m, "restriction does not vanish identically")
            )
    return certified, rejected


def _verdict(
    base: str,
    log: list[HypothesisCheck],
    oracle: IrredVerdict | None,
    n: int,
    roots: list[RootCert] | None,
    certified: list[CertifiedHyperplane],
    slice_real: bool = False,
    premise: str = "Z(p) irreducible",
) -> tuple[str, str, str]:
    """(verdict, conditionality, residual) from what a driver established.

    Pure: it reads the hypothesis log, the oracle's verdict on the premise,
    the certified roots and hyperplanes and whether a slice component has
    real points, and runs no oracle and no numerics.  The first rule that
    applies gives the verdict:

    1. n = 1: IrreducibleSet when the premise is verified or asserted and
       the certified root list is nonempty, else Inconclusive (the residual
       of an irreducible x-part says its roots are algebraic and conjugate
       over Q; with exponentials it cites Lindemann-type independence);
    2. a certified hyperplane: HyperplaneComponents;
    3. a slice component with real points: Inconclusive;
    4. a refuted premise (the oracle found a divisor): Inconclusive;
    5. a premise neither verified nor asserted, or never logged: Inconclusive;
    6. otherwise IrreducibleSet.

    The conditionality is ConditionalOnAssertedHypotheses once any logged
    hypothesis is asserted, unverified or failed, and ``base`` otherwise.
    """
    status = next((h.status for h in log if h.name == premise), None)
    established = status in ("verified", "asserted")
    weak = any(h.status in ("asserted", "unverified", "failed") for h in log)
    label = CONDITIONAL_ASSERTED if weak else base
    if n == 1:
        if established and roots and premise == "x-part irreducible":
            return IRREDUCIBLE_SET, label, (
                "the zero set is the finite set of certified roots, which are "
                "algebraic; the x-part is irreducible over Q, so a polynomial "
                "over Q that vanishes at one root vanishes at all of them"
            )
        if established and roots:
            return IRREDUCIBLE_SET, label, (
                "the zero set is the finite set of certified roots; splitting off "
                "any single transcendental point would need a defining equation "
                "over Q, which Lindemann-type independence rules out"
            )
        return INCONCLUSIVE, label, (
            "hypotheses not established for the one-variable argument"
        )
    if certified:
        return HYPERPLANE_COMPONENTS, label, (
            "closure of Z(f) minus the listed hyperplanes; any further "
            "codimension-1 component would be a certified candidate, and all "
            "remaining candidates fail the vanishing certificate"
        )
    if slice_real:
        return INCONCLUSIVE, label, (
            "no codimension-1 hyperplane component; the zero set decomposes "
            "through the listed slice components (below codimension 1)"
        )
    if status == "failed":
        return INCONCLUSIVE, label, (
            f"{premise.removesuffix(' irreducible')} is reducible over Q "
            f"({oracle.witness}; divisor {format_poly(oracle.factor)}), and a "
            "refuted irreducibility hypothesis supports no IrreducibleSet verdict"
        )
    if not established:
        return INCONCLUSIVE, label, (
            f"the hypothesis '{premise}' is neither verified nor asserted, and "
            "an unestablished irreducibility hypothesis supports no "
            "IrreducibleSet verdict"
        )
    return IRREDUCIBLE_SET, label, (
        "no candidate hyperplane lies in Z(f); under the logged hypotheses "
        "the zero set has no codimension-1 decomposition"
    )


# ---------------------------------------------------------------------------
# codim-1 classification
# ---------------------------------------------------------------------------


def classify_codim1(
    p: Poly,
    assume_irreducible: bool = False,
    assume_codim1: bool = False,
    attempts: int = 8,
) -> ComponentReport:
    """Classify the codimension-1 components of Z(p(x, e^x)).

    Certified hyperplanes are exact symbolic facts (the restriction of the
    function to the hyperplane is the zero exponential polynomial).  The
    completeness claim, that any further codimension-1 component would be one
    of the candidates, rests on Schanuel's conjecture for inputs with two or
    more exponentials and not for the others; the label also records every
    hypothesis that was asserted or not verified (see ``_verdict``).
    """
    if p.is_zero():
        raise HypothesisViolation("cannot classify the zero polynomial")
    n = p.n
    log: list[HypothesisCheck] = []

    f = EPoly.from_poly(p)
    cand = candidate_hyperplanes(p)
    if not cand:
        # The zero set is algebraic in x (up to a nonvanishing exponential
        # factor); only the x-part hypotheses matter here.
        roots = _log_codim1(f, assume_codim1, log)
        return _classify_degenerate(f, log, attempts, roots)

    oracle = _log_irreducibility(p, assume_irreducible, attempts, log)
    roots = _log_codim1(f, assume_codim1, log)
    certified, rejected = _certify(f, cand)
    single_exp = sum(kind == "u" for kind, _ in p.variables_used()) <= 1

    notes: list[str] = []
    if n == 1:
        # One variable: the zero set is a finite set of points; the candidate
        # {x1 = 0} can lie inside it without being a component.
        if certified and any(r.enclosure.contains_zero() for r in roots or ()):
            notes.append(
                "the origin lies in the zero set (restriction to x1 = 0 vanishes); "
                "a point is reported through the root certificates, not as a "
                "component"
            )
        elif certified:  # e.g. a tangential zero, left uncertified
            notes.append(
                "the origin lies in the zero set (restriction to x1 = 0 vanishes), "
                "but no certified root encloses it; it is a point, not a component"
            )
        certified = []
    elif single_exp:
        notes.append(
            "single-exponential input: the classification does not rest on "
            "Schanuel's conjecture"
        )
        if certified:
            notes.append(
                "components below codimension 1 may remain; they are not computed "
                "symbolically"
            )
    else:
        notes.append(
            "multi-exponential input: completeness of the component list is "
            "conditional on Schanuel's conjecture"
        )
    verdict, conditionality, residual = _verdict(
        UNCONDITIONAL if single_exp else CONDITIONAL_SCHANUEL,
        log, oracle, n, roots, certified,
    )
    return ComponentReport(
        verdict=verdict,
        conditionality=conditionality,
        hyperplanes=certified,
        rejected=rejected,
        residual=residual,
        hypothesis_log=log,
        notes=notes,
        roots=roots,
    )


def _classify_degenerate(
    f: EPoly, log: list[HypothesisCheck], attempts: int, roots
) -> ComponentReport:
    """At most one u-exponent vector: the zero set is algebraic in x.

    So f = A e^(d.x) is a single term, and its coefficient A is the x-part.
    """
    [(d, x_part)] = f.terms.items()
    if any(d):
        notes = [
            "single exponential monomial factor e^(d.x) never vanishes; the "
            "zero set equals the real zero set of the x-coefficient polynomial"
        ]
    else:
        notes = ["no exponential dependence: the zero set is algebraic in x"]

    oracle = None
    if not x_part.is_constant():
        oracle = _log_irreducibility(x_part, False, attempts, log, "x-part irreducible")
    verdict, conditionality, residual = _verdict(
        UNCONDITIONAL, log, oracle, f.n, roots, [], premise="x-part irreducible"
    )
    if oracle is None:
        residual = "the x-part is a nonzero constant; the zero set is empty"
    return ComponentReport(
        verdict=verdict,
        conditionality=conditionality,
        hyperplanes=[],
        rejected=[],
        residual=residual,
        hypothesis_log=log,
        degenerate=True,
        notes=notes,
        roots=roots,
    )


# ---------------------------------------------------------------------------
# Single-exponential driver
# ---------------------------------------------------------------------------


def classify_single_exp(p: Poly, attempts: int = 8) -> ComponentReport:
    """Analysis for polynomials depending on u1 only.

    The analysis is independent of Schanuel's conjecture; the label follows
    the hypothesis log, which always holds the asserted dimension bound, and
    the verdict comes from the same rule as in ``classify_codim1``
    (``_verdict``).  Components of the zero set either sit inside the
    hyperplane {x1 = 0} or arise as projections of components of the lifted
    variety Z(p) intersected with the graph {u1 = e^{x1}}.  The exact slice
    p(0, x2..xn, 1) detects the {x1 = 0, u1 = 1} part: if it vanishes
    identically the whole slice lies in the intersection; if it is univariate
    it is split into components by exact factorization.
    """
    if p.is_zero():
        raise HypothesisViolation("cannot classify the zero polynomial")
    bad = sorted(i for kind, i in p.variables_used() if kind == "u" and i >= 2)
    if bad:
        raise DriverError(
            f"single-exponential driver requires dependence on u1 only; "
            f"found u{bad[0]}"
        )
    n = p.n
    notes: list[str] = [
        "the lifted variety Z(p) itself serves as the algebraic cover of the "
        "zero set; the dimension bound dim Z(p) <= dim Z(f) + 1 is recorded, "
        "not computed"
    ]
    log = [
        HypothesisCheck(
            "dim Z(p) <= dim Z(f) + 1",
            "asserted",
            "structural assumption of the single-exponential analysis",
        )
    ]

    f = EPoly.from_poly(p)
    oracle = None
    if not p.is_constant():
        oracle = _log_irreducibility(p, False, attempts, log)
    roots = _log_codim1(f, False, log)

    # Exact slice p(0, x', 1).
    sliced = p.substitute_value("x", 1, 0).substitute_value("u", 1, 1)
    slice_zero = sliced.is_zero()
    axis = [Hyperplane((1,) + (0,) * (n - 1))] if n >= 2 else []
    certified, rejected = _certify(f, axis)
    slice_components: list[SliceComponent] | None = None

    if slice_zero:
        notes.append(
            "the slice polynomial p(0, x', 1) vanishes identically: the whole "
            "set {x1 = 0, u1 = 1} lies in the lifted intersection"
        )
    elif sliced.is_constant():
        notes.append(
            "the slice polynomial p(0, x', 1) is a nonzero constant: the "
            "{x1 = 0, u1 = 1} slice contributes no points"
        )
    elif len(sliced.variables_used()) == 1:
        _, factors = factor_univariate(sliced)
        slice_components = [
            SliceComponent(fac, mult, _has_real_root(fac)) for fac, mult in factors
        ]
        real = [sc for sc in slice_components if sc.real_points]
        notes.append(
            f"the slice factors exactly into {len(factors)} irreducible "
            f"parts, {len(real)} with real points; each real part is one "
            "component of the slice"
        )
    else:
        notes.append(
            "the slice polynomial has 2 or more variables; slice "
            "decomposition beyond the univariate case is not attempted"
        )

    notes.append(
        "any further components are projections of components of "
        "Z(p) n {u1 = e^(x1)} with x1 != 0; upper bounds on their number grow "
        "like (c d)^n in the total degree d, with an unspecified absolute "
        "constant c"
    )
    verdict, conditionality, residual = _verdict(
        UNCONDITIONAL, log, oracle, n, roots, certified,
        slice_real=any(sc.real_points for sc in slice_components or []),
    )
    return ComponentReport(
        verdict=verdict,
        conditionality=conditionality,
        hyperplanes=certified,
        rejected=rejected,
        residual=residual,
        hypothesis_log=log,
        notes=notes,
        roots=roots,
        slice_components=slice_components,
        slice_identically_zero=slice_zero,
    )


def _has_real_root(fac: Poly) -> bool:
    _, coeffs = poly_to_dense(fac)
    return count_real_roots(coeffs) > 0
