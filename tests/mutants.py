"""Committed mutants: planted errors that named tests must catch.

Each entry of ``MUTANTS`` names a file of the checkout, an exact text that
must occur in it exactly once, the text that replaces it, and a target: one
test function of a module under ``tests`` that needs no pytest
(``tests/test_refine.py::test_name``).  The runner copies ``src`` and
``tests`` to a temporary directory, never touching the checkout, and first
runs every target on the unmutated copy, which must pass.  Then, for each
entry, it applies the change to a fresh copy and runs the target, which must
fail.  A refactor that removes or repeats a mutated text makes the run fail
too, and the entry is updated with it.  Standard library only:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line per run and exits 1 when a target fails unmutated, a
text does not occur exactly once, or a mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: a target that runs longer than this counts as failing (a mutant may loop)
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    target: str  # tests/<module>.py::<test function>


MUTANTS = [
    # Exact signs, fixed-point values and rigorous point boxes sum their
    # exp enclosures on one dyadic grid.
    Mutant(
        "exp sum: the e^0 group on the 2^-1 grid",
        "src/expalg/numeric.py",
        "            terms.append((c, c, 0))\n",
        "            terms.append((c, c, 1))\n",
        "tests/test_exp_kernel.py::test_integer_view_and_bound_sum_match_fraction_sums_on_seeded_inputs",
    ),
    # A guessed cell holds the root only if the signs at both its ends differ.
    Mutant(
        "refinement: a guess accepted after one end's sign",
        "src/expalg/numeric.py",
        "            if s_b == s_hi:\n                lo, hi = a, b\n",
        "            if s_a == s_lo:\n                lo, hi = a, b\n",
        "tests/test_refine.py::test_refinement_below_float_resolution_needs_at_most_a_third_of_bisections_signs",
    ),
    # Only a cell whose ends bracket a root may skip the box test.
    Mutant(
        "isolator: the bracketing test inverted",
        "src/expalg/numeric.py",
        "        elif enclosed_sign(lo) * enclosed_sign(hi) >= 0 and _sign(evaluator(cell, nats)):\n",
        "        elif enclosed_sign(lo) * enclosed_sign(hi) < 0 and _sign(evaluator(cell, nats)):\n",
        "tests/test_refine.py::test_cells_whose_ends_bracket_a_root_skip_the_box_test",
    ),
    Mutant(
        "rigorous point box: the value without its 1/M scale",
        "src/expalg/numeric.py",
        "                    return (floor_float(lo, m << work), ceil_float(hi, m << work))\n",
        "                    return (floor_float(lo, 1 << work), ceil_float(hi, 1 << work))\n",
        "tests/test_rational_kernel.py::test_rigorous_plan_matches_reference",
    ),
    # f at a rational point is zero exactly when the scaled_ints map, its
    # third entry, is empty.
    Mutant(
        "quadtree: a corner's exact zero read off M instead of the map",
        "src/expalg/numeric.py",
        "        return None if f.scaled_ints((Fraction(x), Fraction(y)))[2] else 0\n",
        "        return None if f.scaled_ints((Fraction(x), Fraction(y)))[0] else 0\n",
        "tests/test_quadtree.py::test_only_undecided_cells_reach_the_tight_evaluator",
    ),
    Mutant(
        "hyperplane certificate: the refuting value read off M instead of the map",
        "src/expalg/classify.py",
        "        refuted = m.dimension == f.n and f.scaled_ints(_point_on(m))[2]\n",
        "        refuted = m.dimension == f.n and f.scaled_ints(_point_on(m))[0]\n",
        "tests/test_certify.py::test_split_matches_restriction_on_seeded_inputs",
    ),
    # Bounds that reach 0 give neither a sign nor a fixed-point value.
    Mutant(
        "precision loop: bounds with lower end 0 taken as one sign",
        "src/expalg/numeric.py",
        "        if lo > 0 or hi < 0:\n            yield lo, hi, w\n",
        "        if lo >= 0 or hi < 0:\n            yield lo, hi, w\n",
        "tests/test_exp_kernel.py::test_bounds_that_reach_zero_decide_no_sign",
    ),
    Mutant(
        "parser: the leading negation of a single term dropped",
        "src/expalg/parsing.py",
        "            return -signed[0][1] if negate else signed[0][1]\n",
        "            return signed[0][1]\n",
        "tests/test_parse_kernel.py::test_valid_text_parses_to_the_reference_term_order",
    ),
    Mutant(
        "divisor hunt: c0 + 1 as the solved constant",
        "src/expalg/classify.py",
        "    return {c0 for c0, r in solved if not r and c0 in span}\n",
        "    return {c0 + 1 for c0, r in solved if not r and c0 in span}\n",
        "tests/test_symbolic_kernel.py::test_solved_constants_match_enumerated_forms",
    ),
    # The stderr summary is rendered from the report; a rule broken there
    # still agrees with the report, so the pinned lines must catch it.
    Mutant(
        "summary: a slice factor's parentheses inverted",
        "src/expalg/cli.py",
        """            base = f"({sc['factor']})" if " " in sc["factor"] else sc["factor"]\n""",
        """            base = f"({sc['factor']})" if " " not in sc["factor"] else sc["factor"]\n""",
        "tests/test_summary.py::test_summary_of_each_branch",
    ),
    # Bisection's target level k is the least with 2^k >= ceil((hi - lo) / tol).
    Mutant(
        "refinement: the level count from the floor of the width ratio",
        "src/expalg/numeric.py",
        "    levels = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()\n",
        "    levels = ((ratio.numerator // ratio.denominator) - 1).bit_length()\n",
        "tests/test_refine.py::test_isolation_matches_reference_on_seeded_inputs",
    ),
    # A sum keeps its terms in the order they were written.
    Mutant(
        "parser: a sum's terms merged in reverse order",
        "src/expalg/parsing.py",
        "for minus, t in signed for m, c in t.terms.items()",
        "for minus, t in reversed(signed) for m, c in t.terms.items()",
        "tests/test_parse_kernel.py::test_valid_text_parses_to_the_reference_term_order",
    ),
    # e^t underflows below the smallest subnormal only below -745.2.
    Mutant(
        "exp enclosure: the old underflow cut-off at -744.0",
        "src/expalg/intervals.py",
        "    if 10 * n < -7452 * d:\n",
        "    if 10 * n < -7440 * d:\n",
        "tests/test_rational_kernel.py::test_certified_exp_and_pow_enclose_fraction_values",
    ),
    # The oracle of the change of variables: normals map by M^T, not by M.
    Mutant(
        "metamorphic test: normals mapped by M instead of its transpose",
        "tests/test_metamorphic.py",
        "sum(m[i][j] * a[i] for i in range(2))",
        "sum(m[j][i] * a[i] for i in range(2))",
        "tests/test_metamorphic.py::test_integer_change_of_variables_maps_the_certified_normals",
    ),
    # c f has other coefficient denominators than f: the exact kernel scales
    # them to integers by their lcm, which is 1 for f with integer ones.
    Mutant(
        "exact kernel: coefficients scaled by the gcd of their denominators",
        "src/expalg/epoly.py",
        "        scale = math.lcm(",
        "        scale = math.gcd(",
        "tests/test_metamorphic.py::test_nonzero_rational_multiple_has_the_same_roots",
    ),
    # e^(k x1) f has no group without exponential, and the derivative of a
    # group e^(s x1) a is e^(s x1) (a' + s a).
    Mutant(
        "derivative: the exponential's chain-rule term dropped",
        "src/expalg/epoly.py",
        '            ((s, a.derivative("x", i) + a.scale(s[i - 1])) for s, a in self.terms.items()),\n',
        '            ((s, a.derivative("x", i)) for s, a in self.terms.items()),\n',
        "tests/test_metamorphic.py::test_exponential_multiple_has_the_same_roots",
    ),
    # The reflection's roots on [0, 4] are f's on [-4, 0], where an even
    # power of a cell that reaches 0, such as [-4, 0], is bounded by lo^k.
    Mutant(
        "box power: an even power across 0 bounded by the upper end alone",
        "src/expalg/numeric.py",
        "                        hi = (hi if hi > -lo else -lo) ** k\n",
        "                        hi = hi**k\n",
        "tests/test_metamorphic.py::test_reflection_negates_the_roots",
    ),
    # The refuting point must lie on the hyperplane, or a factor's certified
    # plane is refuted in the product.
    Mutant(
        "hyperplane certificate: the pivot coordinate solved with the wrong sign",
        "src/expalg/classify.py",
        "    point[pivot] = Fraction(-rest, normal[pivot])\n",
        "    point[pivot] = Fraction(rest, normal[pivot])\n",
        "tests/test_metamorphic.py::test_certified_hyperplanes_of_a_product_are_those_of_its_factors",
    ),
    # A group without exponential is added as it is in both modes: e^0 = 1
    # needs no product.
    Mutant(
        "fast plan: a group without exponential multiplied by a padded e^0",
        "src/expalg/numeric.py",
        "            if not ratios:  # no exponential: the value is added as it is\n",
        "            if rigorous and not ratios:  # no exponential: the value is added as it is\n",
        "tests/test_exact_steps.py::test_fast_and_rigorous_plans_agree_without_exponential_and_higher_powers",
    ),
    # e^x > 0: no exp enclosure reaches below 0, so value * exp takes the
    # first sign case alone.
    Mutant(
        "fast plan: the exp lower end not clamped at 0",
        "src/expalg/numeric.py",
        "                if e_lo < 0.0:\n                    e_lo = 0.0\n",
        "",
        "tests/test_float_kernel.py::test_plan_kernel_at_exp_overflow_and_underflow",
    ),
    Mutant(
        "pair_exp: the lower end not clamped at 0",
        "src/expalg/intervals.py",
        "        max(_next(_next(_safe_exp(a[0]), -_INF), -_INF), 0.0),\n",
        "        _next(_next(_safe_exp(a[0]), -_INF), -_INF),\n",
        "tests/test_exact_steps.py::test_exp_lower_end_is_zero_where_exp_underflows",
    ),
    # A linear form divides p when p vanishes on its zero set: the pivot
    # variable is solved for, constant term included.
    Mutant(
        "divides_linear: the constant term solved with the wrong sign",
        "src/expalg/classify.py",
        "    const = -d.terms.get((0,) * (2 * n), 0) / c_v\n",
        "    const = d.terms.get((0,) * (2 * n), 0) / c_v\n",
        "tests/test_divisor_hunt.py::test_divides_linear_matches_leading_term_division",
    ),
    # A polynomial in one variable reports factor_dense's first factor of
    # lowest degree.
    Mutant(
        "one-variable oracle: the last factor of lowest degree",
        "src/expalg/classify.py",
        "min((g for g, _ in factors), key=len)",
        "min((g for g, _ in reversed(factors)), key=len)",
        "tests/test_divisor_hunt.py::test_one_variable_divisor_is_the_first_factor_of_lowest_degree",
    ),
    # The oracle's lines are one pinned sequence.
    Mutant(
        "oracle lines: drawn from random.Random(1)",
        "src/expalg/classify.py",
        "    rng = random.Random(0)\n",
        "    rng = random.Random(1)\n",
        "tests/test_divisor_hunt.py::test_lines_depend_on_the_ambient_alone",
    ),
    Mutant(
        "interval_eval: rigorous boxes with an infinite side let through",
        "src/expalg/numeric.py",
        "        if rigorous and not (math.isfinite(lo) and math.isfinite(hi)):\n",
        "        if False:\n",
        "tests/test_rational_kernel.py::test_rigorous_interval_eval_needs_finite_sides",
    ),
]


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))


def run_target(tree: Path, target: str) -> tuple[bool, str]:
    """(passed, last output line) of one test function run in ``tree``."""
    module_path, func = target.split("::")
    module = Path(module_path).stem
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    code = f"import {module}; {module}.{func}()"
    try:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = (done.stderr or done.stdout).strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else ""


def apply(tree: Path, mutant: Mutant) -> None:
    """Replace the mutant's text in ``tree``, where it must occur exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutants.py: {mutant.name}: the text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(names):
        known = ", ".join(repr(m.name) for m in MUTANTS)
        raise SystemExit(f"mutants.py: unknown mutant name; known: {known}")
    survived = 0
    with tempfile.TemporaryDirectory(prefix="expalg-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for mutant in chosen:  # every text must be there before anything runs
            apply(clean, mutant._replace(new=mutant.old))  # an identity edit
        for target in dict.fromkeys(m.target for m in chosen):
            passed, last = run_target(clean, target)
            print(f"{'passes' if passed else 'FAILS '}  unmutated  {target}")
            if not passed:
                print(f"        {last}")
                return 1
        for k, mutant in enumerate(chosen):
            tree = Path(tmp) / f"mutant{k}"
            copy_tree(tree)
            apply(tree, mutant)
            passed, last = run_target(tree, mutant.target)
            print(f"{'SURVIVED' if passed else 'caught  '}  {mutant.name}  ({last[:100]})")
            survived += passed
            shutil.rmtree(tree)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
