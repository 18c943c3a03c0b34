"""Root-bracket refinement against plain bisection.

``numeric._refine_bracket`` refines a bracket with one simple root by
quadratic interval refinement, guessing the root's cell from float values
and proving each guess with exact signs.  Its answer must be the one plain
bisection (``util.reference_refine_bracket``) gives on the same (lo, hi):
the same point root or the same cell, as Fractions.  A bracket not known to
hold one root must be refined exactly as bisection does it.  The module
needs no pytest, so it also runs as a script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_refine.py
"""

import random
import sys
from fractions import Fraction

from expalg import numeric
from expalg.numeric import _refine_bracket, isolate_roots_1d
from expalg.parsing import parse_epoly

from util import rand_epoly, reference_refine_bracket

#: 2^-30 makes a bracket of width 1/8 exactly 27 levels deep
TOLS = (Fraction(1e-9), Fraction(1e-30), Fraction(1e-40), Fraction(2**-30))


class CountingSigns:
    """Count ``numeric.sign_at_rational`` calls inside the block, then put it back."""

    def __enter__(self):
        self.calls = 0
        self.original = numeric.sign_at_rational

        def sign_at_rational(f, pt):
            self.calls += 1
            return self.original(f, pt)

        numeric.sign_at_rational = sign_at_rational
        return self

    def __exit__(self, *exc):
        numeric.sign_at_rational = self.original


def signs(f, taken=None):
    """A cached exact sign of f at a rational, as ``isolate_roots_1d`` keeps
    one; each point whose sign is computed is appended to ``taken``."""
    cache = {}

    def sgn(x):
        if x not in cache:
            cache[x] = numeric.sign_at_rational(f, [x])
            if taken is not None:
                taken.append(x)
        return cache[x]

    return sgn


def refine_both(f, lo, hi, tol, one_root=True):
    """(refinement, bisection) of [lo, hi], each with its own sign cache.

    A point root must be returned as soon as its sign 0 is known, as
    bisection returns it: it is the last point whose sign was computed.
    """
    taken = []
    new = _refine_bracket(signs(f, taken), f.float_evaluator(), lo, hi, tol, one_root)
    if new[0] == new[1]:
        assert taken[-1] == new[0], (lo, hi, tol, new)
    return new, reference_refine_bracket(signs(f), lo, hi, tol)


def assert_matches_bisection(text, brackets, tols=TOLS):
    f = parse_epoly(text)
    sgn = signs(f)
    for lo, hi in brackets:
        assert sgn(lo) * sgn(hi) < 0, (text, lo, hi)
        for tol in tols:
            new, ref = refine_both(f, lo, hi, tol)
            assert new == ref, (text, lo, hi, tol, new, ref)


def brackets_around(rng, root, count, den, width=Fraction(1, 8)):
    """Brackets of the given width, as the isolator's cells are, holding root
    at a random offset from lo that is a multiple of 1/den."""
    out = []
    for _ in range(count):
        lo = root - Fraction(rng.randint(1, int(width * den) - 1), den)
        out.append((lo, lo + width))
    return out


def test_dyadic_roots_match_bisection():
    # Dyadic brackets put the root on their grid at a level below the target
    # one, so bisection stops on it and so must the refinement.  The secant
    # of a convex increasing cubic falls short of the root and that of a
    # concave one overshoots, so guessed cells end at the root on the right
    # and on the left.
    rng = random.Random(18)
    cases = (
        ("1024*x1 - 3", Fraction(3, 1024)),
        ("16*x1 - 1", Fraction(1, 16)),
        ("8*x1^3 - 1", Fraction(1, 2)),
        ("1 - 8*(1 - x1)^3", Fraction(1, 2)),
    )
    for text, root in cases:
        brackets = brackets_around(rng, root, 8, 1 << 13)
        brackets += brackets_around(rng, root, 4, 1 << 13, width=Fraction(3, 16))
        brackets.append((root - Fraction(1, 8), root + Fraction(1, 8)))
        assert_matches_bisection(text, brackets)
    f = parse_epoly("16*x1 - 1")
    for tol in TOLS:
        new, ref = refine_both(f, Fraction(0), Fraction(1, 8), tol)
        assert new == ref == (Fraction(1, 16), Fraction(1, 16))


def test_non_dyadic_and_transcendental_roots_match_bisection():
    rng = random.Random(180)
    cases = (
        ("3*x1 - 1", Fraction(1, 3)),
        ("2*x1 + 1 - exp(x1)", Fraction(1.2564312086261697)),  # f' < 0 on [1.1, 1.4]
        ("2*x1 + 1 - exp(x1)", Fraction(0)),  # the rational root; f' > 0 on [-1/2, 1/2]
        ("exp(x1) - 2", Fraction(0.6931471805599453)),
    )
    for text, root in cases:
        brackets = brackets_around(rng, root, 6, 1 << 12)
        brackets += brackets_around(rng, root, 6, 3 * 7 * 1000, width=Fraction(1, 7))
        assert_matches_bisection(text, brackets)


def test_roots_within_one_grid_cell_of_an_endpoint():
    # The root lies in the first or last cell of the target level: a tight
    # bisection bracket (width far below every tol) gives an endpoint just
    # on either side of it, and the bracket reaches 1/8 to the other side.
    for text, root in (
        ("3*x1 - 1", Fraction(1, 3)),
        ("2*x1 + 1 - exp(x1)", Fraction(1.2564312086261697)),
        ("exp(x1) - 2", Fraction(0.6931471805599453)),
    ):
        f = parse_epoly(text)
        a, b = reference_refine_bracket(signs(f), root - Fraction(1, 64), root + Fraction(1, 32), Fraction(1e-45))
        assert a < b
        brackets = [(a, a + Fraction(1, 8)), (b - Fraction(1, 8), b)]
        brackets += [(a, b + Fraction(1, 8)), (a - Fraction(1, 8), b)]
        assert_matches_bisection(text, brackets)


def test_brackets_whose_float_values_overflow():
    # x1^3 and exp(x1) overflow in floats near the ends of these brackets,
    # so the first steps there have no float hint and bisect.
    for text, end in (("x1^3 - 2", 1e300), ("exp(x1) - 2", 1000.0)):
        try:
            parse_epoly(text).float_evaluator()([end])
        except OverflowError:
            continue
        raise AssertionError(f"{text} does not overflow at {end}")
    assert_matches_bisection("x1^3 - 2", [(Fraction(-1e300), Fraction(1e300))], tols=TOLS[:1])
    assert_matches_bisection("exp(x1) - 2", [(Fraction(-1000), Fraction(1000)), (Fraction(0), Fraction(800))])


def test_merged_bracket_with_three_roots_is_bisected():
    # Roots 11/20, 13/20 and 9/10.  Bisection takes [0, 1] to [1/2, 1] and
    # on to 9/10, where the float secant on [1/2, 1] points to the cell of
    # 11/20.  A merged bracket is not known to hold one root, so it must
    # follow bisection's path.
    f = parse_epoly("(20*x1 - 11)*(20*x1 - 13)*(10*x1 - 9)")
    for lo, hi in ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))):
        for tol in TOLS:
            new, ref = refine_both(f, lo, hi, tol, one_root=False)
            assert new == ref, (lo, hi, tol, new, ref)
            assert ref[0] <= Fraction(9, 10) <= ref[1]


def bisect_only(sgn, value, lo, hi, tol, one_root):
    return reference_refine_bracket(sgn, lo, hi, tol)


def test_isolation_matches_bisection_on_seeded_inputs():
    rng = random.Random(1800)
    refined = 0
    for _ in range(40):
        f = rand_epoly(rng, 1)
        if f.is_zero():
            continue
        for tol in (1e-9, 1e-30):
            new = isolate_roots_1d(f, (-3.0, 3.0), tol)
            original = numeric._refine_bracket
            numeric._refine_bracket = bisect_only
            try:
                ref = isolate_roots_1d(f, (-3.0, 3.0), tol)
            finally:
                numeric._refine_bracket = original
            assert new == ref, f
            refined += len(new[0])
    assert refined >= 40, refined


def test_refinement_needs_at_most_half_the_exact_signs_of_bisection():
    # Bisection makes 27 signs per bracket of width 1/8 at tol 1e-9; a
    # return to one sign per halving fails this bound.
    rng = random.Random(1801)
    cases = (
        ("3*x1 - 1", Fraction(1, 3)),
        ("2*x1 + 1 - exp(x1)", Fraction(1.2564312086261697)),
        ("exp(x1) - 2", Fraction(0.6931471805599453)),
        ("x1^3 - 2*x1 - 5", Fraction(2.0945514815423265)),
    )
    tol = TOLS[0]
    new_calls = ref_calls = 0
    for text, root in cases:
        f = parse_epoly(text)
        for _ in range(8):
            lo = root - Fraction(rng.randint(1, 999), 8000)
            with CountingSigns() as counter:
                new = _refine_bracket(signs(f), f.float_evaluator(), lo, lo + Fraction(1, 8), tol, True)
            new_calls += counter.calls
            with CountingSigns() as counter:
                ref = reference_refine_bracket(signs(f), lo, lo + Fraction(1, 8), tol)
            ref_calls += counter.calls
            assert new == ref, (text, lo)
    assert ref_calls == len(cases) * 8 * (2 + 27), ref_calls
    assert 2 * new_calls <= ref_calls, (new_calls, ref_calls)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok  {name}")
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
