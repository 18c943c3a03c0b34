"""Root isolation against a reference isolator, and root-bracket refinement
against plain bisection.

``numeric.isolate_roots_1d`` settles a monotone cell by its endpoint signs
at any width; ``util.reference_isolate_roots_1d`` waits for width 1/8 and
refines from a first bisection step by secant guesses.  Both must return
the same certificates, or raise the same exception.
``numeric._refine_bracket`` refines a bracket with one simple root by
quadratic interval refinement, guessing the root's cell from a float root
search and proving each guess with exact signs.  Its answer must be the one
plain bisection (``util.reference_refine_bracket``) gives on the same
(lo, hi): the same point root or the same cell, as Fractions.  A bracket
not known to hold one root must be refined exactly as bisection does it.
The module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_refine.py
"""

import math
import random
from fractions import Fraction

from expalg import numeric
from expalg.intervals import float_down, float_up
from expalg.numeric import EvalPlan, TightEvaluator, _refine_bracket, default_root_domain, isolate_roots_1d
from expalg.parsing import parse_epoly

from util import rand_epoly, reference_isolate_roots_1d, reference_refine_bracket, run_standalone

#: 2^-30 makes a bracket of width 1/8 exactly 27 levels deep
TOLS = (Fraction(1e-9), Fraction(1e-30), Fraction(1e-40), Fraction(2**-30))


class Counting:
    """Count the calls of ``owner.name`` inside the block, then put it back."""

    def __init__(self, owner, name):
        self.owner, self.name = owner, name

    def __enter__(self):
        self.calls = 0
        self.original = original = getattr(self.owner, self.name)

        def counted(*args):
            self.calls += 1
            return original(*args)

        setattr(self.owner, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.original)


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
    new = _refine_bracket(f, signs(f, taken), f.float_evaluator(), lo, hi, tol, one_root)
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
    # one, so bisection stops on it and so must the refinement.  The float
    # root is the exact one here, and the guessed cells of a convex and a
    # concave cubic end at the root on either side.
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


def bisect_only(f, sgn, value, lo, hi, tol, one_root):
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


def isolate_both(f, domain, tol):
    """(repr of (certified, uncertified) or the exception type, exact signs,
    box evaluations) from the isolator and from the reference."""
    out = []
    for isolate in (isolate_roots_1d, reference_isolate_roots_1d):
        with Counting(numeric, "sign_at_rational") as exact, Counting(numeric.TightEvaluator, "__call__") as box:
            try:
                result = repr(isolate(f, domain, tol))
            except Exception as exc:  # the reference must raise the same type
                result = type(exc).__name__
        out.append((result, exact.calls, box.calls))
    return out


def test_isolation_matches_reference_on_seeded_inputs():
    # One input in three gets the exact root 3/8, a grid point of every
    # domain below; tol 2^-30 and 1e-40 take brackets below float
    # resolution, and tol 0.3 and 2 and a domain of width 2^64 make the
    # reference's cells suspects before they are 1/8 wide, so no monotone
    # cell may settle there.  A domain at most 1/8 wide takes signs on its
    # first cell whatever the tol.
    rng = random.Random(2000)
    at_grid_point = parse_epoly("x1 - 3/8")
    kinds = set()
    compared = 0
    for i in range(12):
        f = rand_epoly(rng, 1)
        if f.is_zero():
            continue
        if i % 3 == 0:
            f = f * at_grid_point
        for domain in ((-6.0, 6.0), (-40.0, 13.0), default_root_domain(f)):
            for tol in (1e-9, 2.0**-30, 1e-40):
                (new, *_), (ref, *_) = isolate_both(f, domain, tol)
                assert new == ref, (f, domain, tol)
                kinds.update(k for k in ("SignChange", "NewtonContraction", "Uncertified") if k in new)
                compared += 1
        for domain, tol in (((-6.0, 6.0), 0.3), ((-6.0, 6.0), 2.0), ((0.25, 0.375), 1.0), ((0.25, 0.375), 1e-9)):
            (new, *_), (ref, *_) = isolate_both(f, domain, tol)
            assert new == ref, (f, domain, tol)
    # Double roots, irrational and on the grid, leave tangential cells.
    for text in ("(x1^2 - 2)^2*(x1 + 1)", "(8*x1 - 3)^2*(x1 - 1)"):
        (new, *_), (ref, *_) = isolate_both(parse_epoly(text), (-6.0, 6.0), 1e-9)
        assert new == ref, text
        kinds.update(k for k in ("SignChange", "NewtonContraction", "Uncertified") if k in new)
    assert kinds == {"SignChange", "NewtonContraction", "Uncertified"}, kinds
    assert compared >= 90, compared
    # Exact signs with exp terms at |x1| near 2^63 do not finish, so the
    # wide domain takes a polynomial.  Its depth-64 cells are 1 wide, and
    # the roots 3/8 and 5/8 share one.
    f = parse_epoly("(x1 - 3/8)*(8*x1 - 5)*(3*x1 + 70)")
    (new, *_), (ref, *_) = isolate_both(f, (-(2.0**63), 2.0**63), 1e-9)
    assert new == ref and "UncertifiedTangential" in new, new


def test_isolation_needs_fewer_exact_signs_than_the_reference():
    # Monotone cells settle wide, without a box evaluation, and each
    # one-root bracket is settled by the two signs of the cell that holds
    # its float root: at most half the reference's signs on simple roots.
    # Near the double roots of the last input, wide monotone cells without a
    # root are dropped by their float values, so they add no signs either.
    # At tol 1e-40 the float guesses stop at the float resolution, and
    # regula falsi on fixed-point values guesses below it: at most a third
    # of the reference's signs, which bisects there.
    for text, simple in (
        ("(x1^3 - 2*x1 - 5)*exp(x1) - x1 + 1", True),
        ("5*x1^3 - 15*x1 + 5 - exp(x1)", True),
        ("(x1^2 - 2)^2", False),
    ):
        f = parse_epoly(text)
        (new, n_signs, n_boxes), (ref, ref_signs, ref_boxes) = isolate_both(f, (-6.0, 6.0), 1e-9)
        assert new == ref, text
        assert (2 if simple else 1) * n_signs < ref_signs and n_boxes < ref_boxes, (text, n_signs, ref_signs, n_boxes, ref_boxes)
        if simple:
            (new, n_signs, _), (ref, ref_signs, _) = isolate_both(f, (-6.0, 6.0), 1e-40)
            assert new == ref and 3 * n_signs <= ref_signs, (text, n_signs, ref_signs)
    # Monotone on the whole domain: two signs at its ends and two for the
    # cell of the float root, and no box evaluation at all.
    (new, n_signs, n_boxes), (ref, ref_signs, ref_boxes) = isolate_both(parse_epoly("3*x1 - 2 + exp(x1)"), (-6.0, 6.0), 1e-9)
    assert new == ref and (n_signs, n_boxes) == (4, 0) and ref_boxes > 0, (n_signs, n_boxes, ref_signs, ref_boxes)


def test_float_root_by_the_illinois_method():
    # Plain regula falsi keeps the left end of x^10 - 1/2 on [0, 3/2] for
    # hundreds of steps; the Illinois halving reaches adjacent floats well
    # inside the step budget.
    cases = (
        ("x1^10 - 1/2", 0.0, 1.5, 0.5 ** 0.1),
        ("exp(x1) - 2", -1.0, 1000.0, None),  # exp overflows at the right end
        ("2*x1 + 1 - exp(x1)", 1.0, 2.0, 1.2564312086261697),
        ("16*x1 - 1", 0.0, 0.125, 0.0625),  # a float root, hit exactly
        ("x1^2 + 1", -1.0, 1.0, None),  # no sign change
    )
    for text, lo, hi, root in cases:
        got = numeric._float_root(parse_epoly(text).float_evaluator(), lo, hi)
        if root is None:
            assert got is None, (text, got)
        else:
            assert abs(got - root) <= 4 * math.ulp(root), (text, got, root)


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
            with Counting(numeric, "sign_at_rational") as counter:
                new = _refine_bracket(f, signs(f), f.float_evaluator(), lo, lo + Fraction(1, 8), tol, True)
            new_calls += counter.calls
            with Counting(numeric, "sign_at_rational") as counter:
                ref = reference_refine_bracket(signs(f), lo, lo + Fraction(1, 8), tol)
            ref_calls += counter.calls
            assert new == ref, (text, lo)
    assert ref_calls == len(cases) * 8 * (2 + 27), ref_calls
    assert 2 * new_calls <= ref_calls, (new_calls, ref_calls)


def test_refinement_below_float_resolution_needs_at_most_a_third_of_bisections_signs():
    # At tol 1e-40 bisection makes 130 signs per bracket of width 1/8, about
    # 80 of them below float resolution, where the guesses come from
    # fixed-point values; a return to bisection there fails this bound.
    rng = random.Random(2900)
    cases = (
        ("3*x1 - 1", Fraction(1, 3)),
        ("2*x1 + 1 - exp(x1)", Fraction(1.2564312086261697)),
        ("exp(x1) - 2", Fraction(0.6931471805599453)),
        ("x1^3 - 2*x1 - 5", Fraction(2.0945514815423265)),
        ("x1*exp(x1) + 1/3", Fraction(-0.6190612867359452)),
    )
    tol = TOLS[2]
    new_calls = ref_calls = 0
    for text, root in cases:
        f = parse_epoly(text)
        for _ in range(4):
            lo = root - Fraction(rng.randint(1, 999), 8000)
            with Counting(numeric, "sign_at_rational") as counter:
                new = _refine_bracket(f, signs(f), f.float_evaluator(), lo, lo + Fraction(1, 8), tol, True)
            new_calls += counter.calls
            with Counting(numeric, "sign_at_rational") as counter:
                ref = reference_refine_bracket(signs(f), lo, lo + Fraction(1, 8), tol)
            ref_calls += counter.calls
            assert new == ref, (text, lo)
    assert ref_calls == len(cases) * 4 * (2 + 130), ref_calls
    assert 3 * new_calls <= ref_calls, (new_calls, ref_calls)


def test_first_guess_below_float_resolution_is_capped_by_the_secant_error():
    # On exp(x1) - 2 the secant of fixed-point values misses the root by
    # about w / 8 of a bracket w wide, relatively.  A first guess taking
    # every level left is refuted on two of these brackets (12 signs
    # each); one capped at log2(1 / w) - 3 levels is proven at once, so
    # each bracket takes its two end signs and two per proven guess.
    f = parse_epoly("exp(x1) - 2")
    root = Fraction(0.6931471805599453)
    for offset in (6, 433, 913, 734):
        lo = root - Fraction(offset, 8000)
        with Counting(numeric, "sign_at_rational") as counter:
            got = _refine_bracket(f, signs(f), f.float_evaluator(), lo, lo + Fraction(1, 8), TOLS[2], True)
        assert got == reference_refine_bracket(signs(f), lo, lo + Fraction(1, 8), TOLS[2]), offset
        assert counter.calls <= 8, (offset, counter.calls)


def _bracketing(plan, lo: Fraction, hi: Fraction) -> bool:
    """Whether the float enclosures of f at lo and at hi exclude 0 with opposite signs."""
    signs = []
    for x in (lo, hi):
        v_lo, v_hi = plan([(float_down(x), float_up(x))])
        signs.append(1 if v_lo > 0.0 else -1 if v_hi < 0.0 else 0)
    return signs[0] * signs[1] < 0


def _expected_isolator_boxes(f, domain, tol) -> tuple[list, int]:
    """The cells the isolator's TightEvaluator must get, in order, and the
    number of cells that skip it because their ends bracket a root.

    The isolator's traversal does not depend on exact signs: a monotone cell
    is settled, a cell whose end enclosures bracket a root skips the box
    test, and any other cell is dropped when the box test excludes 0; the
    rest become suspects or are halved.  ``domain`` must let monotone cells
    settle.
    """
    plan, dplan, tight = EvalPlan(f), EvalPlan(f.derivative(1)), TightEvaluator(f)
    out, skipped = [], 0
    stack = [(Fraction(domain[0]), Fraction(domain[1]), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        cell = [(float_down(lo), float_up(hi))]
        d_lo, d_hi = dplan(cell)
        if d_lo > 0.0 or d_hi < 0.0:
            continue
        if _bracketing(plan, lo, hi):
            skipped += 1
        else:
            out.append(cell)
            v_lo, v_hi = tight(cell)
            if v_lo > 0.0 or v_hi < 0.0:
                continue
        if 4 * (hi - lo) <= Fraction(tol) or depth >= numeric._ISOLATE_MAX_DEPTH:
            continue
        mid = (lo + hi) / 2
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return out, skipped


def test_cells_whose_ends_bracket_a_root_skip_the_box_test():
    # A non-monotone cell whose end enclosures have opposite signs holds a
    # root, so no sound enclosure excludes 0 there: it must not reach the
    # TightEvaluator, and every other non-monotone cell must, in order.
    seen = []
    tight_call = TightEvaluator.__call__

    def recording(self, bounds, nats=None):
        seen.append(list(bounds))
        return tight_call(self, bounds, nats)

    rng = random.Random(2901)
    inputs = [
        "(x1^3 - 2*x1 - 5)*exp(x1) - x1 + 1",
        "5*x1^3 - 15*x1 + 5 - exp(x1)",
        "(x1^2 - 2)^2*(x1 + 1)",
        "(8*x1 - 3)*(x1^2 - 1/3)*exp(x1) + x1",
    ]
    inputs += [rand_epoly(rng, 1) for _ in range(12)]
    skipped = 0
    for f in inputs:
        f = parse_epoly(f) if isinstance(f, str) else f
        if f.is_zero():
            continue
        for domain, tol in (((-6.0, 6.0), 1e-9), ((-3.0, 5.0), 1e-6)):
            del seen[:]
            TightEvaluator.__call__ = recording
            try:
                isolate_roots_1d(f, domain, tol)
            finally:
                TightEvaluator.__call__ = tight_call
            want, n = _expected_isolator_boxes(f, domain, tol)
            assert seen == want, (f, domain, tol)
            skipped += n
    assert skipped >= 40, skipped


if __name__ == "__main__":
    run_standalone(globals())
