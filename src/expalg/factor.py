"""Exact univariate polynomial factorization over Q, plus dense helpers.

Dense polynomials are coefficient lists indexed by degree (``f[k]`` is the
coefficient of ``x^k``); the zero polynomial is the empty list.  Rationals
become integers in one place: ``over_common_denominator`` writes a rational
vector as integers over one denominator, and ``dprimitive`` splits a rational
polynomial into its content and primitive integer part.  Every dense helper
below them takes integer lists: the ring helpers ``dadd`` .. ``dderiv``, the
``z`` helpers (``zprimitive``, ``zprem``, ``zgcd``, ``zdivexact``,
``zsquarefree``), ``factor_dense``, and the ``gf_`` helpers on residues
modulo a prime or a prime power.  ``factor_univariate`` and
``count_real_roots`` take rational coefficients and pass them through
``dprimitive``.

Factorization follows the classical route:

  monomial part x^k  ->  Yun square-free decomposition of the primitive
  integer part (primitive PRS gcds, exact integer division)
  ->  per square-free part: choose an odd prime by the number of modular
      factors that distinct-degree splitting counts, split only that prime's
      distinct-degree parts by equal-degree splitting, Hensel lift the factors
      past the Landau-Mignotte coefficient bound on residues in [0, p^k),
      recombine subsets by exact integer trial division.

Returned irreducible factors are primitive integer polynomials with positive
leading coefficient; ``prod(factor^mult)`` is the primitive part of the
input, and ``factor_dense`` verifies that identity before returning.

The equal-degree splitting draws from ``random.Random(0)``, fresh for each
call.  The monic irreducible factors modulo p are unique and returned
sorted, so the seed changes how long the splitting takes, never the result.

The module also provides Sturm-chain real-root counting on integer
pseudo-remainders, used to decide which irreducible factors have real zeros.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import InternalInvariantError
from .poly import Poly, var_pos


# ---------------------------------------------------------------------------
# Dense arithmetic on integer lists
# ---------------------------------------------------------------------------


def dtrim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def ddeg(f: list) -> int:
    return len(f) - 1


def dadd(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return dtrim(out)


def dneg(a: list) -> list:
    return [-c for c in a]


def dsub(a: list, b: list) -> list:
    return dadd(a, dneg(b))


def dmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            if d:
                out[i + j] += c * d
    return dtrim(out)


def dscale(a: list, c) -> list:
    if not c:
        return []
    return [v * c for v in a]


def dpow(a: list, k: int) -> list:
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = dmul(out, base)
        k >>= 1
        if k:
            base = dmul(base, base)
    return out


def dderiv(a: list) -> list:
    return dtrim([a[i] * i for i in range(1, len(a))])


def over_common_denominator(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers V and l with v = V / l, l the lcm of the denominators."""
    den = lcm(*(c.denominator for c in v))
    return [c.numerator * (den // c.denominator) for c in v], den


def dprimitive(f: Sequence[Fraction]) -> tuple[Fraction, list[int]]:
    """Split off the rational content: f = content * primitive-int-part, lc > 0."""
    ints, den = over_common_denominator(f)
    prim = zprimitive(dtrim(ints))
    if not prim:
        return Fraction(0), []
    return Fraction(ints[-1] // prim[-1], den), prim


# ---------------------------------------------------------------------------
# Primitive integer polynomials
# ---------------------------------------------------------------------------


def zprimitive(f: Sequence[int]) -> list[int]:
    """The primitive part of an integer polynomial, lc > 0 ([] for zero)."""
    if not f:
        return []
    g = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // g for c in f]


def zprem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by b over Q.

    Pseudo-division: each step scales the running remainder by |lc(b)|
    before cancelling its top coefficient, so no Fraction arises and the
    signs are those of the remainder over Q.
    """
    rem = list(a)
    lb = abs(b[-1])
    sb = 1 if b[-1] > 0 else -1
    tail = b[:-1]
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        top = rem.pop() * sb
        if lb != 1:
            rem = [lb * c for c in rem]
        for i, c in enumerate(tail):
            rem[shift + i] -= top * c
        dtrim(rem)
    return rem


def zgcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd with lc > 0 of integer polynomials, by the primitive
    PRS (Collins 1967); [] only if both are zero."""
    a, b = zprimitive(a), zprimitive(b)
    while b:
        a, b = b, zprimitive(zprem(a, b))
    return a


def zdivexact(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """a / b for integer polynomials when b divides a in Z[x], else None.

    For a primitive b, b | a over Q implies b | a in Z[x] (Gauss's lemma),
    so every quotient coefficient is an integer; the division stops at the
    first top coefficient that lc(b) does not divide.
    """
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    tail = b[:-1]
    while len(rem) >= len(b):
        q, r = divmod(rem.pop(), lb)
        if r:
            return None
        shift = len(rem) - len(tail)
        quo[shift] = q
        for i, c in enumerate(tail):
            rem[shift + i] -= q * c
        dtrim(rem)
    return None if rem else quo


def zsquarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive f with lc > 0: its primitive
    square-free parts with lc > 0, and their multiplicities.

    Every gcd is primitive, so each quotient is integral and ``zdivexact``
    divides exactly; the parts are those of Yun's algorithm over Q, up to
    the constant factors that primitive parts drop.
    """
    df = dderiv(f)
    g = zgcd(f, df)
    b = zdivexact(f, g)
    d = dsub(zdivexact(df, g), dderiv(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while ddeg(b) > 0:
        a = zgcd(b, d)
        if ddeg(a) > 0:
            out.append((a, i))
        b = zdivexact(b, a)
        d = dsub(zdivexact(d, a), dderiv(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Arithmetic in GF(p)[x]
# ---------------------------------------------------------------------------


def gf_trunc(f: Sequence[int], p: int) -> list[int]:
    return dtrim([c % p for c in f])


def gf_sub(a, b, p):
    return gf_trunc(dsub(a, b), p)


def gf_divmod(a, b, p):
    """a = quo*b + rem modulo p, for unreduced a and b: each step reduces
    only the new top coefficient, and rem is reduced once at the end."""
    if not b:
        raise ZeroDivisionError("gf division by zero")
    rem, inv, tail = list(a), pow(b[-1] % p, -1, p), b[:-1]
    quo = [0] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        quo[shift] = factor = rem.pop() % p * inv % p
        for i, c in enumerate(tail):
            rem[shift + i] -= factor * c
    return dtrim(quo), gf_trunc(rem, p)


def gf_rem(a, b, p):
    """The remainder of ``gf_divmod(a, b, p)``, without building the quotient."""
    if not b:
        raise ZeroDivisionError("gf division by zero")
    rem, inv, tail = list(a), pow(b[-1] % p, -1, p), b[:-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem.pop() % p * inv % p
        for i, c in enumerate(tail):
            rem[shift + i] -= factor * c
    return gf_trunc(rem, p)


def gf_monic(f, p):
    f = gf_trunc(f, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gf_gcd(a, b, p):
    a, b = gf_trunc(a, p), gf_trunc(b, p)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(a, b, p):
    """Extended gcd: returns (s, t) with s*a + t*b = 1 for coprime a, b."""
    r0, r1 = gf_trunc(a, p), gf_trunc(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, dmul(q, s1), p)
        t0, t1 = t1, gf_sub(t0, dmul(q, t1), p)
    if ddeg(r0) != 0:
        raise ValueError("gf_gcdex requires coprime inputs")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def gf_pow_mod(base, e: int, mod, p):
    result = [1]
    base = gf_rem(base, mod, p)
    while e:
        if e & 1:
            result = gf_rem(dmul(result, base), mod, p)
        e >>= 1
        if e:
            base = gf_rem(dmul(base, base), mod, p)
    return result


def gf_ddf(f, p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree parts of a monic square-free f in GF(p)[x]: pairs
    (g, d) with g the monic product of f's irreducible factors of degree d,
    so f has sum(ddeg(g) // d) irreducible factors."""
    parts: list[tuple[list[int], int]] = []
    x = [0, 1]
    h = x
    d = 0
    while ddeg(f) > 0:
        d += 1
        if 2 * d > ddeg(f):
            parts.append((f, ddeg(f)))
            break
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(gf_sub(h, x, p), f, p)
        if ddeg(g) > 0:
            parts.append((g, d))
            f, _ = gf_divmod(f, g, p)
            h = gf_rem(h, f, p)
    return parts


def _gf_equal_degree(g, d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus splitting: all factors of g have degree exactly d."""
    if ddeg(g) == d:
        return [gf_monic(g, p)]
    exponent = (p**d - 1) // 2
    while True:
        r = gf_trunc([rng.randrange(p) for _ in range(ddeg(g))], p)
        if ddeg(r) < 1:
            continue
        w = gf_gcd(r, g, p)
        if 0 < ddeg(w) < ddeg(g):
            pass  # lucky gcd split
        else:
            s = gf_sub(gf_pow_mod(r, exponent, g, p), [1], p)
            w = gf_gcd(s, g, p)
            if not 0 < ddeg(w) < ddeg(g):
                continue
        rest, _ = gf_divmod(g, w, p)
        return _gf_equal_degree(w, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic steps, residues in [0, m))
# ---------------------------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g*h (mod m), s*g + t*h = 1 (mod m),
    to the same relations mod m^2, with h monic.

    Reduction modulo m^2 commutes with division by a monic polynomial, so
    both divisions run in (Z / m^2)[x].  The lifts are unique modulo m^2, so
    they do not depend on the residues chosen for the inputs.
    """
    mm = m * m
    e = gf_sub(f, dmul(g, h), mm)
    q, r = gf_divmod(dmul(s, e), h, mm)
    big_g = gf_trunc(dadd(g, dadd(dmul(t, e), dmul(q, g))), mm)
    big_h = gf_trunc(dadd(h, r), mm)
    b = gf_sub(dadd(dmul(s, big_g), dmul(t, big_h)), [1], mm)
    c, d = gf_divmod(dmul(s, b), big_h, mm)
    big_s = gf_sub(s, d, mm)
    big_t = gf_sub(t, dadd(dmul(t, b), dmul(c, big_g)), mm)
    return big_g, big_h, big_s, big_t


def _hensel_lift(p: int, f: list[int], modular: list[list[int]], l: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(modular) (mod p) to a factorization mod p^l."""
    r = len(modular)
    lc = f[-1]
    if r == 1:
        inv = pow(lc % p**l, -1, p**l)
        return [gf_trunc(dscale(f, inv), p**l)]
    m = p
    k = r // 2
    d = max(1, (l - 1).bit_length())
    g, h = [lc], [1]
    for q in modular[:k]:
        g = dmul(g, q)
    for q in modular[k:]:
        h = dmul(h, q)
    g, h = gf_trunc(g, p), gf_trunc(h, p)
    s, t = gf_gcdex(g, h, p)
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, modular[:k], l) + _hensel_lift(p, h, modular[k:], l)


# ---------------------------------------------------------------------------
# Zassenhaus over Z
# ---------------------------------------------------------------------------


def _sym_trunc(f: Sequence[int], m: int) -> list[int]:
    """f modulo m with coefficients in (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return dtrim(out)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _factor_squarefree_int(f: list[int], rng: random.Random) -> list[list[int]]:
    """Irreducible factors of a primitive square-free integer polynomial, lc > 0."""
    n = ddeg(f)
    if n <= 0:
        return []
    if n == 1:
        return [f]
    lc = f[-1]
    max_norm = max(abs(c) for c in f)
    # Landau-Mignotte style bound on coefficients of any factor, times lc.
    bound = (isqrt(n + 1) + 1) * (1 << n) * max_norm * abs(lc)

    # Score each prime by its number of modular factors; split only the one kept.
    candidates = []
    p = 3
    while len(candidates) < 3 and p < 10000:
        if _is_prime(p) and lc % p != 0:
            fp = gf_monic(f, p)
            if ddeg(gf_gcd(fp, gf_trunc(dderiv(f), p), p)) == 0:
                parts = gf_ddf(fp, p)
                candidates.append((sum(ddeg(g) // d for g, d in parts), p, parts))
                if candidates[-1][0] == 1:
                    break
        p += 2
    if not candidates:
        raise InternalInvariantError("no admissible prime found for factorization")
    count, p, parts = min(candidates, key=lambda c: c[0])
    if count == 1:
        return [f]
    modular = [q for g, d in parts for q in _gf_equal_degree(g, d, p, rng)]
    modular.sort(key=lambda q: (ddeg(q), tuple(q)))

    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, f, modular, l)

    # Subset recombination with exact trial division.
    factors: list[list[int]] = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for subset in combinations(remaining, size):
            cand = [current[-1]]
            for i in subset:
                cand = dmul(cand, lifted[i])
            cand = zprimitive(_sym_trunc(cand, pl))
            if not cand:
                continue
            # current and cand are primitive, so a quotient over Q is the
            # integer one, primitive with lc > 0 (Gauss's lemma).
            quo = zdivexact(current, cand)
            if quo is not None:
                factors.append(cand)
                current = quo
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if ddeg(current) > 0:
        factors.append(current)
    return sorted(factors, key=lambda q: (ddeg(q), tuple(q)))


def factor_dense(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """Irreducible factors over Q of a nonzero integer polynomial.

    Returns [(primitive integer factor, multiplicity), ...] with
    prod(factor^mult) == the primitive part of f exactly (verified).
    Factors have positive leading coefficients and are sorted by (degree,
    coefficients); a constant has no factors.
    """
    f = dtrim(list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    shift = next(k for k, c in enumerate(f) if c)
    factors: list[tuple[list[int], int]] = [([0, 1], shift)] if shift else []
    work = zprimitive(f[shift:])
    if ddeg(work) > 0:
        rng = random.Random(0)
        for part, mult in zsquarefree(work):
            for irr in _factor_squarefree_int(part, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (ddeg(fm[0]), tuple(fm[0]), fm[1]))

    check = [1]
    for fac, mult in factors:
        check = dmul(check, dpow(fac, mult))
    if check != zprimitive(f):
        raise InternalInvariantError("factorization does not reproduce the input")
    return factors


# ---------------------------------------------------------------------------
# Sturm real-root counting
# ---------------------------------------------------------------------------


def _variations(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def count_real_roots(f: Sequence[Fraction]) -> int:
    """Number of distinct real roots (Sturm; input need not be square-free).

    The chain is built on the primitive part s of f, which has f's roots.
    Each member after s' is minus a ``zprem`` pseudo-remainder divided by its
    positive content: a positive multiple of the member of s's chain over Q,
    with the same signs at +-infinity.
    """
    _, s = dprimitive(f)
    if ddeg(s) <= 0:
        return 0
    # The chain ends at gcd(f, f'), so it counts distinct roots as it is.
    chain = [s, dderiv(s)]
    while rem := zprem(chain[-2], chain[-1]):
        g = gcd(*rem)
        chain.append([-c // g for c in rem])
    at_minus = [(1 if c[-1] > 0 else -1) * (-1) ** ddeg(c) for c in chain]
    at_plus = [1 if c[-1] > 0 else -1 for c in chain]
    return _variations(at_minus) - _variations(at_plus)


# ---------------------------------------------------------------------------
# Poly interface
# ---------------------------------------------------------------------------


def poly_to_dense(p: Poly) -> tuple[tuple[str, int] | None, list[Fraction]]:
    """Dense coefficients of a univariate (or constant) Poly, with its variable."""
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError(f"polynomial is not univariate: uses {sorted(used)}")
    if not used:
        c = p.constant_value()
        return None, [c] if c else []
    (kind, idx) = next(iter(used))
    pos = var_pos(p.n, kind, idx)
    coeffs = [Fraction(0)] * (p.degree_in(kind, idx) + 1)
    for mono, c in p.terms.items():
        coeffs[mono[pos]] += c
    return (kind, idx), coeffs


def dense_to_poly(coeffs: Sequence, n: int, kind: str, idx: int) -> Poly:
    pos = var_pos(n, kind, idx)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            ex = [0] * (2 * n)
            ex[pos] = e
            terms[tuple(ex)] = Fraction(c)
    return Poly(n, terms)


def factor_univariate(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Factor a univariate Poly over Q into irreducible Poly factors.

    Returns (content, [(factor, multiplicity), ...]); the factors are
    primitive integer polynomials in the same variable and ambient as the
    input, with positive leading coefficients.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    var, coeffs = poly_to_dense(p)
    content, prim = dprimitive(coeffs)
    factors = factor_dense(prim)
    if var is None:
        return content, []
    kind, idx = var
    return content, [
        (dense_to_poly(fac, p.n, kind, idx), mult) for fac, mult in factors
    ]
