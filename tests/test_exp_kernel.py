"""Bit identity of the fixed-point exp kernel and of exact signs.

``intervals.exp_bounds`` works on scaled integers; the Fraction version in
``util`` rounds every step the same way on normalized Fractions.  The two
must return equal Fractions.  ``EPoly.scaled_ints``, the integer view of the
exact value, must give the Fraction reference's groups, and
``numeric._exp_sum``, the integer bound sum behind exact signs, fixed-point
values and rigorous point boxes, the bounds of a Fraction sum of
``exp_bounds``.  The module needs no pytest, so it also runs as a script on
an interpreter without it:

    PYTHONPATH=src python3 tests/test_exp_kernel.py
"""

import random
from fractions import Fraction

from expalg import numeric
from expalg.epoly import EPoly
from expalg.hyperplanes import Hyperplane, primitive_normalize
from expalg.intervals import exp_bounds, exp_fixed
from expalg.numeric import _exp_sum, sign_at_rational
from expalg.parsing import parse_epoly

from util import (
    rand_epoly,
    rand_fraction,
    reference_coefficient_groups,
    reference_exp_bounds,
    run_standalone,
)

EPS = Fraction(1, 10**30)
QUARTER = Fraction(1, 4)
SPECIAL = [
    Fraction(0),
    QUARTER,
    -QUARTER,
    QUARTER - EPS,
    QUARTER + EPS,
    -QUARTER - EPS,
    -QUARTER + EPS,
    Fraction(1, 2),  # dyadic, one halving
    Fraction(-5, 16),
    Fraction(3, 1 << 40),
    Fraction(1, 3),  # non-dyadic
    Fraction(-7, 3),
    EPS,
    -EPS,
    Fraction(1000),
    Fraction(-1000),
]
# The precisions sign_at_rational asks for (96 bits, doubled while within
# its 4096-bit budget), and the budget itself; the high ones on fewer q.
BITS = [96, 192, 384, 768, 1536]
HIGH_BITS = [3072, 4096]
HIGH_Q = [QUARTER + EPS, -QUARTER - EPS, Fraction(1, 3), Fraction(1000), Fraction(-1000)]
# e to 60 significant digits, cut off: e - E60 is about 7.6e-60 (2^-196).
E60 = Fraction("2.71828182845904523536028747135266249775724709369995957496696")


def random_qs(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(seed)
    qs = []
    for _ in range(count):
        qs.append(Fraction(rng.randint(-4000, 4000), rng.randint(1, 997)))
        qs.append(Fraction(rng.randint(-(1 << 40), 1 << 40), 1 << rng.randint(34, 50)))
    return qs


def test_exp_bounds_special_arguments():
    for q in SPECIAL:
        for bits in BITS:
            assert exp_bounds(q, bits) == reference_exp_bounds(q, bits), (q, bits)


def test_exp_bounds_high_precision():
    for q in HIGH_Q:
        for bits in HIGH_BITS:
            assert exp_bounds(q, bits) == reference_exp_bounds(q, bits), (q, bits)


def test_exp_bounds_seeded_arguments():
    for i, q in enumerate(random_qs(20, 40)):
        bits = BITS[i % 3]
        assert exp_bounds(q, bits) == reference_exp_bounds(q, bits), (q, bits)


def test_exp_bounds_encloses_e_at_60_digits():
    lo, hi = exp_bounds(Fraction(1), 384)
    assert hi - lo < Fraction(1, 1 << 380)
    # E60 falls short of e by less than 10^-59, by far more than the width.
    assert E60 < lo <= hi < E60 + Fraction(1, 10**59)


def reference_sign(f: EPoly, pt, max_bits: int = 4096) -> tuple[int, list[int]]:
    """Sign of f at a rational point from Fraction sums, and the precision of
    each exp enclosure; e^0 = 1 needs none."""
    groups = reference_coefficient_groups(f, pt)
    asked: list[int] = []
    bits = 96
    while groups and bits <= max_bits:
        lo = hi = Fraction(0)
        for t, c in groups.items():
            if t == 0:
                elo = ehi = Fraction(1)
            else:
                elo, ehi = reference_exp_bounds(t, bits)
                asked.append(bits)
            lo += c * (elo if c >= 0 else ehi)
            hi += c * (ehi if c >= 0 else elo)
        if lo > 0:
            return 1, asked
        if hi < 0:
            return -1, asked
        bits *= 2
    if groups:
        raise AssertionError("reference ran out of precision")
    return 0, asked


def precisions_asked(f: EPoly, pt) -> tuple[int, list[int]]:
    """sign_at_rational(f, pt) and the precision of each exp_fixed call it made."""
    asked = []

    def spy(a, b, bits):
        asked.append(bits)
        return exp_fixed(a, b, bits)

    numeric.exp_fixed = spy
    try:
        return sign_at_rational(f, pt), asked
    finally:
        numeric.exp_fixed = exp_fixed


def restricted_epoly(rng: random.Random, n: int) -> EPoly:
    """A random EPoly in n variables restricted from n + 1, so its spectra are fractional."""
    normal = (0,)
    while not any(normal):
        normal = tuple(rng.randint(-3, 3) for _ in range(n + 1))
    return rand_epoly(rng, n + 1).restrict(primitive_normalize(normal))


def check_against_reference(f: EPoly, pt) -> int:
    """The kernel's groups are the reference's, in order, times one positive factor;
    sign_at_rational asks for the reference's precisions and returns its sign."""
    ref = reference_coefficient_groups(f, pt)
    got = f.scaled_groups(pt)
    assert list(got) == list(ref), (f, pt)
    ratios = {Fraction(c) / ref[t] for t, c in got.items()}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios), (f, pt)
    sign, asked = reference_sign(f, pt)
    assert precisions_asked(f, pt) == (sign, asked), (f, pt)
    return sign


def test_sign_matches_fraction_sum_on_seeded_inputs():
    rng = random.Random(22)
    seen_fractional = seen_merge = False
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        f = rand_epoly(rng, n) if rng.random() < 0.5 else restricted_epoly(rng, n)
        seen_fractional |= any(q.denominator > 3 for s in f.terms for q in s)
        for _ in range(2):
            # distinct denominators, and zero coordinates so that spectra collide
            pt = [Fraction(0) if rng.random() < 0.2 else rand_fraction(rng, span=20, den=12) for _ in range(n)]
            seen_merge |= len(reference_coefficient_groups(f, pt)) < len(f.terms)
            check_against_reference(f, pt)
    assert seen_fractional and seen_merge


def test_cancelling_groups_give_an_exact_zero():
    a, b = Fraction(2, 7), Fraction(3, 5)
    diagonal = parse_epoly("x1*u1 - x2*u2", 2)
    assert check_against_reference(diagonal, [a, a]) == 0
    assert check_against_reference(diagonal, [a, b]) != 0
    axes = parse_epoly("x1*u2 + x2*u1 - x1 - x2", 2)
    assert check_against_reference(axes, [Fraction(0), Fraction(5, 3)]) == 0
    assert check_against_reference(axes.restrict(Hyperplane((1, 0))), [b]) == 0
    # x3 = -x1/3 gives spectra (-1/3, 1) and (2/3, 0): equal exponents on x1 = x2
    g = parse_epoly("x1*u2*u3 - x2*u1*u3", 3).restrict(Hyperplane((1, 0, 3)))
    assert sorted(g.terms) == [(Fraction(-1, 3), Fraction(1)), (Fraction(2, 3), Fraction(0))]
    assert check_against_reference(g, [a, a]) == 0
    assert check_against_reference(g, [a, b]) != 0


def test_sign_with_precision_doublings():
    # A lower bound for e from the 1024-bit enclosure falls short of e by
    # less than 2^-1024, so its sign takes several doublings.
    e_1024 = reference_exp_bounds(Fraction(1), 1024)[0]
    for approx, decided in ((E60, 192), (e_1024, 1536)):
        # D*e^x1 - N with approx = N/D: the sign at x1 = 1 is that of e - approx.
        for text, sign in (
            (f"{approx.denominator}*u1 - {approx.numerator}", 1),
            (f"{approx.numerator} - {approx.denominator}*u1", -1),
        ):
            f = parse_epoly(text, 1)
            # t = 1 at each precision, doubling from 96 bits; t = 0 needs none
            expected = (sign, [b for b in BITS if b <= decided])
            assert reference_sign(f, [1]) == precisions_asked(f, [1]) == expected


def test_sign_of_exact_zero_needs_no_enclosure():
    f = parse_epoly("2*x1*u1 - u1", 1)
    assert precisions_asked(f, [Fraction(1, 2)]) == (0, [])


def test_group_without_exponential_needs_no_enclosure():
    # At x1 = 0 every group has t = 0; at x1 = 1/2 the constant group has
    # t = 0 and the other t = 1/2 or 1.
    arguments = []

    def spy(a, b, bits):
        arguments.append(Fraction(a, b))
        return exp_fixed(a, b, bits)

    numeric.exp_fixed = spy
    try:
        for text, x, sign in (
            ("3*x1 - 1 + u1 - u1^2", 0, -1),
            ("3*x1 - 1 + u1 - u1^2", Fraction(1, 2), -1),
            ("x1^2 - 7", Fraction(3, 8), -1),
            ("2*u1 - 3", Fraction(1, 2), 1),
        ):
            assert sign_at_rational(parse_epoly(text, 1), [x]) == sign, text
    finally:
        numeric.exp_fixed = exp_fixed
    assert arguments and 0 not in arguments, arguments


def test_integer_view_and_bound_sum_match_fraction_sums_on_seeded_inputs():
    # scaled_ints gives (M, T, {a: C}) with f = sum C e^(a / T) / M: each
    # C / M must be the reference's coefficient sum at t = a / T, in its
    # order.  _exp_sum must bound sum C e^(a / T) exactly as the Fraction
    # sum of exp_bounds does, on one grid.
    rng = random.Random(29)
    seen_negative = seen_mixed_grids = False
    for _ in range(120):
        n = rng.choice((1, 2, 3))
        f = rand_epoly(rng, n) if rng.random() < 0.5 else restricted_epoly(rng, n)
        pt = [Fraction(0) if rng.random() < 0.2 else rand_fraction(rng, span=20, den=12) for _ in range(n)]
        m, t_den, groups = f.scaled_ints(pt)
        assert m > 0 and t_den > 0, (f, pt)
        ref = reference_coefficient_groups(f, pt)
        assert [(Fraction(a, t_den), Fraction(c, m)) for a, c in groups.items()] == list(ref.items()), (f, pt)
        for bits in (96, 192):
            lo = hi = Fraction(0)
            works = set()
            for a, c in groups.items():
                elo, ehi = exp_bounds(Fraction(a, t_den), bits) if a else (1, 1)
                works.add(exp_fixed(a, t_den, bits)[2])
                lo += c * (elo if c > 0 else ehi)
                hi += c * (ehi if c > 0 else elo)
            got_lo, got_hi, w = _exp_sum(groups, t_den, bits)
            assert (Fraction(got_lo, 1 << w), Fraction(got_hi, 1 << w)) == (lo, hi), (f, pt, bits)
            seen_negative |= any(a < 0 for a in groups)
            seen_mixed_grids |= len(works) > 1
    assert seen_negative and seen_mixed_grids


if __name__ == "__main__":
    run_standalone(globals())
