"""Reference algebra for the benchmark, written apart from expalg.

A polynomial P(x1..xn, u1..un) over Q is held as a term map from exponent
pairs (ex, eu) to nonzero Fractions.  The function f(x) = P(x, e^x) is
evaluated with ``decimal`` at DIGITS significant digits; nothing here calls
expalg, so every check made with it is independent of the program.

The univariate part (dense Fraction lists, index = degree) gives exact
Sturm root isolation, a proven global root bound and an exact real-root
count for f(x) = A0(x) + A1(x) e^(s x).
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

DIGITS = 60


def to_dec(v) -> Decimal:
    """Exact or DIGITS-digit Decimal for an int, Fraction, float or Decimal."""
    if isinstance(v, Fraction):
        return Decimal(v.numerator) / Decimal(v.denominator)
    return Decimal(v)


class TermPoly:
    """Sparse polynomial over Q in x1..xn, u1..un (u_i stands for e^(x_i))."""

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                self.terms[key] = self.terms.get(key, 0) + c
                if not self.terms[key]:
                    del self.terms[key]

    @classmethod
    def const(cls, n: int, c) -> TermPoly:
        return cls(n, {((0,) * n, (0,) * n): c})

    @classmethod
    def var(cls, n: int, kind: str, i: int) -> TermPoly:
        e = tuple(1 if j == i - 1 else 0 for j in range(n))
        z = (0,) * n
        return cls(n, {(e, z) if kind == "x" else (z, e): 1})

    def __add__(self, other: TermPoly) -> TermPoly:
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TermPoly(self.n, out)

    def __neg__(self) -> TermPoly:
        return TermPoly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: TermPoly) -> TermPoly:
        return self + (-other)

    def __mul__(self, other: TermPoly) -> TermPoly:
        out: dict[tuple, Fraction] = {}
        for (ax, au), c in self.terms.items():
            for (bx, bu), d in other.terms.items():
                k = (tuple(p + q for p, q in zip(ax, bx)), tuple(p + q for p, q in zip(au, bu)))
                out[k] = out.get(k, 0) + c * d
        return TermPoly(self.n, out)

    def __pow__(self, k: int) -> TermPoly:
        out = TermPoly.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i: int) -> TermPoly:
        """d/dx_i of f(x) = P(x, e^x): x^a u^b -> a_i x^(a-e_i) u^b + b_i x^a u^b."""
        out: dict[tuple, Fraction] = {}
        for (ex, eu), c in self.terms.items():
            if ex[i - 1]:
                k = (tuple(e - (j == i - 1) for j, e in enumerate(ex)), eu)
                out[k] = out.get(k, 0) + c * ex[i - 1]
            if eu[i - 1]:
                out[(ex, eu)] = out.get((ex, eu), 0) + c * eu[i - 1]
        return TermPoly(self.n, out)

    def u_vectors(self) -> set[tuple]:
        return {eu for _, eu in self.terms}

    def active(self) -> set[tuple[str, int]]:
        used = set()
        for ex, eu in self.terms:
            used |= {("x", j + 1) for j, e in enumerate(ex) if e}
            used |= {("u", j + 1) for j, e in enumerate(eu) if e}
        return used

    def text(self) -> str:
        """Text in the program's input grammar."""
        if not self.terms:
            return "0"
        pieces = []
        for (ex, eu), c in sorted(self.terms.items(), reverse=True):
            factors = [
                f"{v}{j + 1}" + (f"^{e}" if e > 1 else "")
                for v, exps in (("x", ex), ("u", eu))
                for j, e in enumerate(exps)
                if e
            ]
            a = abs(c)
            coeff = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
            if factors and a == 1:
                body = "*".join(factors)
            else:
                body = "*".join([coeff] + factors)
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign} {body}" if pieces else ("-" if c < 0 else "") + body)
        return " ".join(pieces)

    def value(self, point) -> tuple[Decimal, Decimal]:
        """(f(point), sum of |terms|) at DIGITS digits; point has n coordinates."""
        with localcontext() as ctx:
            ctx.prec = DIGITS
            xs = [to_dec(v) for v in point]
            us = [x.exp() for x in xs]
            acc = Decimal(0)
            scale = Decimal(0)
            for (ex, eu), c in self.terms.items():
                t = to_dec(c)
                for x, e in zip(xs, ex):
                    if e:
                        t *= x**e
                for u, e in zip(us, eu):
                    if e:
                        t *= u**e
                acc += t
                scale += abs(t)
            return +acc, +scale

    def by_spectrum(self) -> dict[tuple, list[Fraction]]:
        """n = 1 only: dense x-coefficient list of each u-exponent."""
        out: dict[tuple, list[Fraction]] = {}
        for (ex, eu), c in self.terms.items():
            dense = out.setdefault(eu, [])
            dense.extend([Fraction(0)] * (ex[0] + 1 - len(dense)))
            dense[ex[0]] += c
        return {s: dtrim(d) for s, d in out.items()}


def grid_table(p: TermPoly, xs, ys):
    """Values of a 2-variable f on the grid xs x ys, as a list of rows (one per y)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        xd = [to_dec(v) for v in xs]
        yd = [to_dec(v) for v in ys]
        xe = [v.exp() for v in xd]
        ye = [v.exp() for v in yd]
        items = [(to_dec(c), ex, eu) for (ex, eu), c in p.terms.items()]
        cols = [[x ** ex[0] * u ** eu[0] for x, u in zip(xd, xe)] for _, ex, eu in items]
        rows = [[y ** ex[1] * u ** eu[1] for y, u in zip(yd, ye)] for _, ex, eu in items]
        table = []
        for j in range(len(yd)):
            row_terms = [(c * r[j], col) for (c, _, _), r, col in zip(items, rows, cols)]
            table.append([sum(ct * col[i] for ct, col in row_terms) for i in range(len(xd))])
        return table


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q
# ---------------------------------------------------------------------------


def dtrim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def dadd(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return dtrim(out)


def dscale(a: list, c) -> list:
    return dtrim([v * c for v in a])


def dmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return dtrim(out)


def dder(a: list) -> list:
    return dtrim([a[i] * i for i in range(1, len(a))])


def deval(a: list, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def drem(a: list, b: list) -> list:
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b) and dtrim(rem):
        shift = len(rem) - len(b)
        q = rem[-1] / b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
        dtrim(rem)
    return rem


def dquo(a: list, b: list) -> list:
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and dtrim(rem):
        shift = len(rem) - len(b)
        q = rem[-1] / b[-1]
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
    return dtrim(quo)


def dgcd(a: list, b: list) -> list:
    a, b = dtrim([Fraction(c) for c in a]), dtrim([Fraction(c) for c in b])
    while b:
        a, b = b, drem(a, b)
    return dscale(a, 1 / a[-1]) if a else []


def sturm_count(f: list, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of f in (lo, hi]."""
    g = dgcd(f, dder(f))
    if len(g) > 1:
        f = dquo(f, g)
    chain = [f, dder(f)]
    while len(chain[-1]) > 1:
        chain.append(dscale(drem(chain[-2], chain[-1]), -1))

    def changes(x) -> int:
        signs = [s for s in (deval(c, x) for c in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    return changes(lo) - changes(hi)


def real_roots(f: list, lo: Fraction, hi: Fraction, width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Brackets (a, b) of width <= width, one per distinct root of f in (lo, hi)."""
    f = dtrim([Fraction(c) for c in f])
    if len(f) <= 1:
        return []
    g = dgcd(f, dder(f))
    sq = dquo(f, g) if len(g) > 1 else f
    out = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        sa, sb = deval(sq, a), deval(sq, b)
        k = sturm_count(sq, a, b) - (sb == 0)  # roots in the open interval
        if k == 0:
            continue
        if k == 1 and sa and sb:
            # One simple root and nonzero ends: plain sign bisection.
            while b - a > width:
                m = (a + b) / 2
                sm = deval(sq, m)
                if sm == 0:
                    a = b = m
                elif (sm > 0) == (sa > 0):
                    a = m
                else:
                    b = m
            out.append((a, b))
            continue
        m = (a + b) / 2
        if deval(sq, m) == 0:
            out.append((m, m))
        stack += [(a, m), (m, b)]
    return sorted(out)


# ---------------------------------------------------------------------------
# Roots of f(x) = A0(x) + A1(x) e^(s x)
# ---------------------------------------------------------------------------


class OneVar:
    """f(x) = A0(x) + A1(x) e^(s x) with s a positive integer, A0, A1 coprime."""

    def __init__(self, p: TermPoly):
        groups = p.by_spectrum()
        spectra = sorted(groups)
        if p.n != 1 or len(spectra) != 2 or spectra[0] != (0,):
            raise ValueError("expected A0(x) + A1(x) * u1^s")
        self.p = p
        self.s = spectra[1][0]
        self.a0 = groups[(0,)]
        self.a1 = groups[spectra[1]]
        if len(dgcd(self.a0, self.a1)) > 1:
            raise ValueError("A0 and A1 share a root")

    def f_dec(self, x) -> Decimal:
        return self.p.value([x])[0]

    def bound(self) -> tuple[int, int]:
        """(Y, X): every real root lies in (-Y, X)."""
        def side(big, small):
            lead = abs(big[-1])
            rest = sum(abs(c) for c in big[:-1])
            m = max(0, len(small) - len(big) + 1)
            h = sum(abs(c) for c in small)
            v = max(1, 2 * rest / lead, 2 * h * math.factorial(m) / (lead * self.s**m))
            return math.ceil(v) + 1

        return side(self.a0, self.a1), side(self.a1, self.a0)

    def roots(self) -> list[Decimal]:
        """Every real root, each to about 40 digits (exact Decimal for x = 0)."""
        y, x = self.bound()
        lo, hi = Fraction(-y), Fraction(x)
        a0, a1, s = self.a0, self.a1, self.s
        # g = A0/A1 e^(-s x) has g' = W e^(-s x) / A1^2: between consecutive real
        # roots of A1 and W, f has at most one root, found by a sign change.
        w = dadd(dadd(dmul(dder(a0), a1), dscale(dmul(a0, dder(a1)), -1)), dscale(dmul(a0, a1), -s))
        tiny = Fraction(1, 10**45)
        breaks = [(a + b) / 2 for q in (a1, w) for a, b in real_roots(q, lo, hi, tiny)]
        zero_root = deval(a0, 0) + deval(a1, 0) == 0
        pts = sorted(set([lo, hi] + breaks + ([Fraction(0)] if zero_root else [])))
        signs = []
        for v in pts:
            if zero_root and v == 0:
                signs.append(0)
                continue
            val = self.f_dec(v)
            if abs(val) < Decimal("1e-25"):
                raise ValueError("f is too close to zero at a critical point")
            signs.append(1 if val > 0 else -1)
        out = [Decimal(0)] if zero_root else []
        for (a, sa), (b, sb) in zip(zip(pts, signs), zip(pts[1:], signs[1:])):
            if sa * sb < 0:
                out.append(self._bisect(a, b, sa))
        return sorted(out)

    def _bisect(self, a: Fraction, b: Fraction, sa: int) -> Decimal:
        for _ in range(140):
            m = (a + b) / 2
            v = self.f_dec(m)
            if v == 0:
                return to_dec(m)
            if (v > 0) == (sa > 0):
                a = m
            else:
                b = m
        with localcontext() as ctx:
            ctx.prec = DIGITS
            return to_dec((a + b) / 2)


def primitive_normal(v) -> tuple[int, ...]:
    g = 0
    for e in v:
        g = math.gcd(g, abs(e))
    w = [e // g for e in v]
    if next(e for e in w if e) < 0:
        w = [-e for e in w]
    return tuple(w)


def candidate_normals(p: TermPoly) -> list[tuple[int, ...]]:
    """Sorted primitive normals d - d' over pairs of distinct u-exponent vectors."""
    vecs = sorted(p.u_vectors())
    if len(vecs) <= 1:
        return []
    return sorted({primitive_normal([a - b for a, b in zip(d, e)]) for d, e in combinations(vecs, 2)})


def sd_polynomial(primes) -> list[Fraction]:
    """Swinnerton-Dyer polynomial: S_k = A^2 - p B^2 where S_(k-1)(x + sqrt p) = A + sqrt(p) B."""
    s = [Fraction(0), Fraction(1)]
    for p in primes:
        a: list = []
        b: list = []
        for i, c in enumerate(s):
            for j in range(i + 1):
                # c * binom(i, j) * x^(i-j) * sqrt(p)^j
                term = [Fraction(0)] * (i - j) + [c * math.comb(i, j) * p ** (j // 2)]
                if j % 2:
                    b = dadd(b, term)
                else:
                    a = dadd(a, term)
        s = dadd(dmul(a, a), dscale(dmul(b, b), -p))
    return s
