"""Candidate hyperplanes through the origin from u-monomial exponents.

Every polynomial p in x1..xn, u1..un groups into monomials A(x) * u^d with
integer exponent vectors d.  Each unordered pair of distinct exponent vectors
d, d' contributes the hyperplane {(d - d') . x = 0}; the normal vector is
stored in a primitive canonical form (gcd 1, first nonzero entry positive),
so the family is a deduplicated sorted list, invariant under reordering terms
of p or scaling p by a nonzero rational.

With at most one distinct exponent vector the family is empty: the
degenerate case, whose zero set is algebraic in x, up to a nonvanishing
exponential factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Sequence

from .errors import HyperplaneError
from .poly import Poly


@dataclass(frozen=True, order=True)
class Hyperplane:
    """Hyperplane {normal . x = 0} with a primitive integer normal vector."""

    normal: tuple[int, ...]

    def __post_init__(self):
        if not self.normal or all(e == 0 for e in self.normal):
            raise HyperplaneError("hyperplane normal must be a nonzero vector")
        g = 0
        for e in self.normal:
            g = gcd(g, abs(e))
        first = next(e for e in self.normal if e != 0)
        if g != 1 or first < 0:
            raise HyperplaneError(f"normal {self.normal} is not in primitive form")

    @property
    def dimension(self) -> int:
        return len(self.normal)


def primitive_normalize(v: Sequence[int]) -> Hyperplane:
    """Divide by the gcd and flip sign so the first nonzero entry is positive."""
    if not v or all(e == 0 for e in v):
        raise HyperplaneError("cannot normalize the zero vector")
    g = 0
    for e in v:
        g = gcd(g, abs(e))
    w = [e // g for e in v]
    if next(e for e in w if e != 0) < 0:
        w = [-e for e in w]
    return Hyperplane(tuple(w))


def candidate_hyperplanes(p: Poly) -> tuple[Hyperplane, ...]:
    """All hyperplanes {(d - d') . x = 0} over pairs of distinct u-exponent
    vectors, sorted and duplicate-free: empty exactly when p has at most one."""
    vectors = sorted(p.u_exponent_vectors())
    seen: set[Hyperplane] = set()
    for d, e in combinations(vectors, 2):
        diff = tuple(a - b for a, b in zip(d, e))
        seen.add(primitive_normalize(diff))
    return tuple(sorted(seen))
