"""CLI behaviour: JSON reports, determinism, exit codes."""

import json
import math
import re

import pytest

from expalg import cli, corpus
from expalg.numeric import sample_zero_cells_2d
from expalg.parsing import parse_epoly


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(capsys, argv, flag):
    """argparse rejects ``flag`` on this subcommand: exit 2, no report."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and flag in captured.err, argv


def test_canon_poly_and_epoly(capsys):
    code, out, _ = run_cli(capsys, ["canon", "2*x1 - u1 + 1"])
    assert code == 0
    report = json.loads(out)
    assert report["schemaVersion"] == 2
    assert report["result"] == {"canonical": "2*x1 - u1 + 1", "kind": "poly"}

    code, out, _ = run_cli(capsys, ["canon", "2*x1 + 1 - exp(x1)"])
    assert json.loads(out)["result"]["canonical"] == "(2*x1 + 1) + (-1)*exp(x1)"

    # The same text read as a polynomial, and under --epoly, where u1 is e^x1.
    code, out, _ = run_cli(capsys, ["canon", "u1 + x1"])
    assert code == 0
    assert json.loads(out)["result"] == {"canonical": "x1 + u1", "kind": "poly"}
    code, out, _ = run_cli(capsys, ["canon", "--epoly", "u1 + x1"])
    assert code == 0
    assert json.loads(out)["result"] == {"canonical": "(x1) + (1)*exp(x1)", "kind": "epoly"}


def test_classify_report_shape(capsys):
    code, out, err = run_cli(capsys, ["classify", "x1*u2 + x2*u1 - x1 - x2"])
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert result["verdict"] == "HyperplaneComponents"
    assert [h["equation"] for h in result["hyperplanes"]] == ["x2 = 0", "x1 = 0"]
    assert [h["equation"] for h in result["rejected"]] == ["x1 - x2 = 0"]
    assert result["conditionality"] == "ConditionalOnSchanuel"
    assert report["hypothesisLog"]
    assert report["timings"] is None
    assert "HyperplaneComponents" in err


def test_reports_are_byte_identical(capsys):
    argv = ["classify", "x1*u2 + x2*u1 - x1 - x2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second

    argv = ["roots", "2*x1 + 1 - exp(x1)", "--domain", "-5", "5"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_roots_report(capsys):
    code, out, _ = run_cli(capsys, ["roots", "2*x1 + 1 - exp(x1)", "--domain", "-5", "5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 2
    kinds = {c["kind"] for c in result["certified"]}
    assert kinds == {"NewtonContraction", "SignChange"}


def test_sample2d_report(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample2d", "exp(x1)*exp(x2)", "--box", "0", "1", "0", "1", "--depth", "3"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 0 and result["cells"] == []


def test_sample2d_rejects_an_unbounded_box(capsys):
    # an infinite side used to exit 0 with Infinity in box, cellWidth and
    # cells, which is not valid JSON
    for box in (["0", "inf", "0", "1"], ["-1", "0", "0", "inf"], ["-inf", "0", "0", "1"]):
        code, out, err = run_cli(capsys, ["sample2d", "--box", *box, "--depth", "1", "--", "x1 - x2"])
        assert code == cli.EXIT_INPUT and out == "", box
        assert err == "input error: box sides must be finite\n", err
    f = parse_epoly("x1 - x2")
    for side in ((-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="box sides must be finite"):
            sample_zero_cells_2d(f, [(0.0, 1.0), side], 1)


def test_sample2d_rejects_a_zero_width_side(capsys):
    # a side of width 0 used to give duplicate cells: 4 copies of
    # [0.75, 1.0, 0.5, 0.5] for the first box, 16 of [0, 0, 0, 0] for the second
    for box in (["0", "1", "0.5", "0.5"], ["0", "0", "0", "0"], ["2", "2", "0", "1"]):
        code, out, err = run_cli(capsys, ["sample2d", "--box", *box, "--depth", "2", "--", "x1 - 2*x2"])
        assert code == cli.EXIT_INPUT and out == "", box
        assert err == "input error: box sides must be nonempty intervals\n", err
    with pytest.raises(ValueError, match="box sides must be nonempty intervals"):
        sample_zero_cells_2d(parse_epoly("x1 - x2"), [(0.0, 1.0), (1.0, 1.0)], 1)


def test_sample2d_rejects_a_reversed_or_nan_side_with_the_quadtree_message(capsys):
    # the quadtree's checks are the only box validation: a reversed side is
    # not a nonempty interval and a NaN end is not finite
    for box, message in (
        (["1", "0", "0", "1"], "box sides must be nonempty intervals"),
        (["0", "1", "1", "0"], "box sides must be nonempty intervals"),
        (["nan", "1", "0", "1"], "box sides must be finite"),
        (["0", "1", "0", "nan"], "box sides must be finite"),
    ):
        code, out, err = run_cli(capsys, ["sample2d", "--box", *box, "--depth", "2", "--", "x1 - x2"])
        assert code == cli.EXIT_INPUT and out == "", box
        assert err == f"input error: {message}\n", err
        x_lo, x_hi, y_lo, y_hi = map(float, box)
        with pytest.raises(ValueError, match=message):
            sample_zero_cells_2d(parse_epoly("x1 - x2"), [(x_lo, x_hi), (y_lo, y_hi)], 2)


def test_sample2d_rejects_a_side_too_narrow_to_halve(capsys):
    # a split whose midpoint is an end of its side used to give duplicate and
    # degenerate cells: 16 cells, 14 with x side [1.0, 1.0] and a cellWidth
    # of 2.8e-17, for the first box; 8 cells, 6 degenerate, for the second
    for box, depth, text in (
        (["1", "1.0000000000000002", "0", "1"], "3", "x1 - 2*x2"),
        (["0", "5e-324", "0", "1"], "2", "x1 - x2 + 1/2"),
    ):
        code, out, err = run_cli(capsys, ["sample2d", "--depth", depth, "--box", *box, "--", text])
        assert code == cli.EXIT_INPUT and out == "", box
        assert err == "input error: box sides are too narrow to halve max_depth times\n", err
    # a narrow side is fine while no cell that holds a zero needs splitting
    cells = sample_zero_cells_2d(parse_epoly("x1 - 2*x2"), [(1.0, 1.0000000000000002), (0.0, 1.0)], 0)
    assert len(cells) == 1


def test_rigorous_sample2d_beyond_the_float_range(capsys):
    # e^x1 leaves the float range inside the box: rigorous mode used to exit
    # 1 with an OverflowError; it now widens to inf, as fast mode does, and
    # keeps fast mode's single cell
    argv = ["sample2d", "--depth", "3", "--box", "0", "1000", "0", "1", "--", "u1 - x2"]
    code, fast, _ = run_cli(capsys, argv)
    assert code == 0
    code, rigorous, _ = run_cli(capsys, ["sample2d", "--rigorous", *argv[1:]])
    assert code == 0
    fast, rigorous = json.loads(fast)["result"], json.loads(rigorous)["result"]
    assert rigorous == fast and rigorous["cells"] == [[0.0, 125.0, 0.875, 1.0]]


def test_negative_option_values_with_an_exponent(capsys):
    # argparse read -5e0, -1e1 and -1e0 as option strings: the first two
    # exited 2 with "expected N arguments", the last with "unrecognized
    # arguments".  Each now gives the report of the plain decimal.
    for argv, value, plain in (
        (["roots", "--domain", "-5e0", "5", "--", "2*x1 + 1 - exp(x1)"], "-5e0", "-5"),
        (["sample2d", "x1 - x2", "--box", "-1e1", "1", "0", "1", "--depth", "3"], "-1e1", "-10"),
        (
            ["transversal", "--ambient", "2", "--root-of", "2*x1 + 1 - exp(x1)", "--coords", "-1e0", "--", "2*x1 - u1 + x2"],
            "-1e0",
            "-1",
        ),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)
        assert run_cli(capsys, [plain if a == value else a for a in argv]) == (code, out, err)
    # -inf is read as a value too, and the range checks reject it
    code, out, err = run_cli(capsys, ["roots", "--domain", "-inf", "5", "--", "x1 - 1"])
    assert code == cli.EXIT_INPUT and out == "" and err.startswith("input error: "), err


def test_transversal_default_and_zero_root(capsys):
    code, out, _ = run_cli(capsys, ["transversal", "2*x1 - u1 + 1"])
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    assert len(checks) == 1 and checks[0]["verdict"] == "Transverse"
    assert checks[0]["tangencyMargin"] > 1e-6

    code, _, err = run_cli(capsys, ["transversal", "2*x1 - u1 + 1", "--root-index", "0"])
    assert code == 2
    assert "hypothesis violation" in err


def test_transversal_with_lifted_coordinates(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "transversal",
            "2*x1 - u1 + 1",
            "--ambient",
            "2",
            "--coords",
            "0",
            "--root-of",
            "2*x1 + 1 - exp(x1)",
        ],
    )
    assert code == 0
    checks = json.loads(out)["result"]["checks"]
    assert checks[0]["verdict"] == "Transverse"


def test_transversal_root_beyond_float_range_is_transverse(capsys):
    # the root 710 is certified and e^710 is beyond the float range, but the
    # one minor, f' = 1, has no exponential in it
    code, out, err = run_cli(capsys, ["transversal", "--", "x1 - 710"])
    assert code == 0, err
    [check] = json.loads(out)["result"]["checks"]
    assert check["rootEnclosure"] == [710.0, 710.0] and check["point"] == [710.0, None]
    assert check["verdict"] == "Transverse" and check["jacobianRankLowerBound"] == 2
    assert check["tangencyMargin"] == 1.0


def test_transversal_beyond_float_range_is_undetermined(capsys):
    # the minor f' = e^x1 (x1 - 709) is beyond the float range at the
    # root 710: no float margin, so no verdict, instead of an input error
    code, out, err = run_cli(capsys, ["transversal", "--root-of", "x1 - 710", "--", "u1*(x1 - 710)"])
    assert code == 0, err
    [check] = json.loads(out)["result"]["checks"]
    assert check["rootEnclosure"] == [710.0, 710.0] and check["point"] == [710.0, None]
    assert check["verdict"] == "Undetermined" and check["jacobianRankLowerBound"] == 1
    assert check["tangencyMargin"] is None
    assert "margin beyond the float range" in err


def test_rigorous_only_on_sample2d(capsys):
    # only sample2d has a rational backend; elsewhere the flag changed
    # nothing but the report's mode, so argparse rejects it
    code, out, _ = run_cli(capsys, ["sample2d", "x1^2 + x2^2 - u1", "--rigorous", "--depth", "2"])
    assert code == 0 and json.loads(out)["mode"] == "rigorous"
    code, out, _ = run_cli(capsys, ["roots", "2*x1 + 1 - exp(x1)"])
    assert code == 0 and json.loads(out)["mode"] == "fast"
    for argv in (
        ["roots", "2*x1 + 1 - exp(x1)"],
        ["classify", "x1*u2 + x2*u1 - x1 - x2"],
        ["transversal", "2*x1 - u1 + 1"],
        ["canon", "x1"],
        ["hyperplanes", "x1*u2"],
        ["classify1e", "x1 - u1"],
        ["verify-paper"],
    ):
        assert_rejected(capsys, [*argv, "--rigorous"], "--rigorous")


def test_no_subcommand_takes_a_seed(capsys):
    # The oracle's lines are one fixed sequence, so nothing is seeded: every
    # subcommand rejects --seed, and the oracle drivers' reports say seed 0.
    for argv in (
        ["canon", "x1"],
        ["hyperplanes", "x1*u2"],
        ["classify", "2*x1 - u1 + 1"],
        ["classify1e", "2*x1 - u1 + 1"],
        ["roots", "2*x1 + 1 - exp(x1)"],
        ["sample2d", "x1 - x2"],
        ["transversal", "2*x1 - u1 + 1"],
        ["verify-paper"],
    ):
        assert_rejected(capsys, [*argv, "--seed", "1"], "--seed")
    for command in ("classify", "classify1e"):
        code, out, _ = run_cli(capsys, [command, "--", "2*x1 - u1 + 1"])
        assert code == 0 and json.loads(out)["seed"] == 0, command
    # x1^2 - 1 is factored on the line x1 = t: the divisor is factor_dense's
    # first factor.
    code, out, _ = run_cli(capsys, ["classify", "--ambient", "2", "--", "x1^2 - 1"])
    assert code == 0 and "; divisor x1 - 1)" in json.loads(out)["result"]["residual"]
    # verify-paper takes no input, so no variable count either
    assert_rejected(capsys, ["verify-paper", "--ambient", "2"], "--ambient")


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, ["canon", "x1 +"])
    assert code == 1 and out == "" and "input error" in err


def test_out_of_range_option_values_are_input_errors(capsys):
    # a non-positive root tolerance used to bisect forever, a negative depth
    # gave a cell wider than the box, a negative or NaN transversality
    # tolerance dropped the margin test (NaN also made the JSON invalid), and
    # fewer than one oracle attempt ran as one
    for argv in (
        ["roots", "--tol", "0", "--", "3*x1 - 1"],
        ["roots", "--tol", "-1", "--", "3*x1 - 1"],
        ["transversal", "--root-tol", "0", "--", "3*x1 - 1 + u1 - u1"],
        ["transversal", "--tol", "-1", "--", "2*x1 - u1 + 1"],
        ["transversal", "--tol", "nan", "--", "2*x1 - u1 + 1"],
        ["transversal", "--tol", "inf", "--", "2*x1 - u1 + 1"],
        ["sample2d", "--depth", "-1", "--", "x1 - x2"],
        ["classify", "--attempts", "-3", "--", "x1*u2+x2*u1-x1-x2"],
        ["classify", "--attempts", "0", "--", "x1*u2+x2*u1-x1-x2"],
        ["classify1e", "--attempts", "0", "--", "x1*u1 - 1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT and out == "", argv
        assert err.startswith("input error: ") and err.count("\n") == 1, argv


def test_non_finite_root_options_name_the_option(capsys):
    # each exited 1 with "cannot convert Infinity to integer ratio: a value
    # is outside the float range" or a bare "cannot convert NaN to integer
    # ratio", which names neither the option nor the rule
    for argv, message in (
        (["roots", "--tol", "inf", "--", "3*x1 - 1"], "root tolerance must be positive and finite"),
        (["transversal", "--root-tol", "inf", "--", "2*x1 - u1 + 1"], "root tolerance must be positive and finite"),
        (["roots", "--domain", " -inf", "5", "--", "3*x1 - 1"], "domain endpoints must be finite"),
        (["roots", "--domain", "0", "nan", "--", "3*x1 - 1"], "domain endpoints must be finite"),
        (["transversal", "--domain", "0", "nan", "--", "2*x1 - u1 + 1"], "domain endpoints must be finite"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT and out == "", argv
        assert err == f"input error: {message}\n", (argv, err)


def test_ambient_below_one_is_an_input_error(capsys):
    # an ambient of 0 used to reach the drivers: classify logged "no dimension
    # check available for n >= 3", transversal asked for "-1 --coords values"
    # and classify1e failed on "variable index 1 out of range 1..0"
    for command, text in (
        ("canon", "1"),
        ("hyperplanes", "1"),
        ("classify", "1"),
        ("classify1e", "2"),
        ("transversal", "1"),
    ):
        for ambient in ("0", "-1"):
            code, out, err = run_cli(capsys, [command, "--ambient", ambient, "--", text])
            assert code == cli.EXIT_INPUT and out == "", (command, ambient)
            assert err == f"input error: ambient override {ambient} below 1 (line 1, column 1)\n", err


def test_variable_index_above_64_is_an_input_error(capsys):
    # x100000 used to set the ambient count to 100,000: classify then ran
    # for seconds into gigabytes and ended in a MemoryError traceback
    for argv, message in (
        (["classify", "--", "x100000 + u1"], "variable index too large (limit 64) (line 1, column 1)"),
        (["classify", "--ambient", "65", "--", "x1 + u1"], "ambient override 65 too large (limit 64) (line 1, column 1)"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT and out == "", argv
        assert err == f"input error: {message}\n", (argv, err)


def test_deep_parentheses_are_an_input_error(capsys):
    # each level costs the parser four frames, so without a limit about 245
    # levels end in a RecursionError traceback instead of an input error
    for depth in (65, 1000):
        code, out, err = run_cli(capsys, ["canon", "--", "(" * depth + "x1" + ")" * depth])
        assert code == cli.EXIT_INPUT and out == "", depth
        assert err == "input error: parentheses nested too deeply (limit 64) (line 1, column 65)\n", err
    code, out, _ = run_cli(capsys, ["canon", "--", "(" * 64 + "x1" + ")" * 64])
    assert code == cli.EXIT_OK and json.loads(out)["result"]["canonical"] == "x1"


def test_exponent_past_the_int_conversion_limit_is_an_input_error(capsys):
    # int() of more than 4,300 digits raises, so a long exponent used to end
    # in CPython's "Exceeds the limit" message with no line or column
    for text, column in (("x1^" + "1" * 5000, 4), ("x1^" + "0" * 5000 + "65", 4), ("2*(x1 + 1)^" + "9" * 4301, 12)):
        code, out, err = run_cli(capsys, ["canon", "--", text])
        assert code == cli.EXIT_INPUT and out == "", text[:20]
        assert err == f"input error: exponent too large (limit 64) (line 1, column {column})\n", err
    code, out, _ = run_cli(capsys, ["canon", "--", "x1^" + "0" * 5000 + "64"])
    assert code == cli.EXIT_OK and json.loads(out)["result"]["canonical"] == "x1^64"


def test_integer_literal_past_the_int_conversion_limit_is_an_input_error(capsys):
    long = "1" * 5000
    for text, column in ((f"{long}*x1 + 1", 1), (f"x1 - 1/{long}", 8), (f"x1 + {long}/3", 6)):
        code, out, err = run_cli(capsys, ["canon", "--", text])
        assert code == cli.EXIT_INPUT and out == "", text[:20]
        assert err == f"input error: integer literal too long (limit 4300 digits) (line 1, column {column})\n", err
    # the limit counts significant digits: leading zeros are free
    code, out, _ = run_cli(capsys, ["canon", "--", "0" * 5000 + "7*x1"])
    assert code == cli.EXIT_OK and json.loads(out)["result"]["canonical"] == "7*x1"
    code, out, _ = run_cli(capsys, ["canon", "--", "9" * 4300 + "*x1"])
    assert code == cli.EXIT_OK and json.loads(out)["result"]["canonical"] == "9" * 4300 + "*x1"


def test_coefficient_past_the_int_conversion_limit_is_an_input_error(capsys):
    # Each literal is within the limit, but a product, power or sum of them
    # is not: the report used to fail in str() of the coefficient, with
    # CPython's "Exceeds the limit" message and no line or column.
    ones = "1" * 3000
    for text, column in (
        (f"{ones}*{ones}*x1", 3001),
        (f"x1 + ({ones}*x2)^2", 3011),
        (f"x1 - 1/{ones}*1/{ones}", 3008),
        (f"{'9' * 4300} + 1 + x1", 4302),
    ):
        code, out, err = run_cli(capsys, ["canon", "--", text])
        assert code == cli.EXIT_INPUT and out == "", text[:20]
        assert err == f"input error: coefficient too long (limit 4300 digits) (line 1, column {column})\n", (text[:20], err)
    # 4,300 digits after a product or a sum are within the limit
    code, out, _ = run_cli(capsys, ["canon", "--", f"{'3' * 2150}*{'3' * 2150}*x1 + {'9' * 4299} + 1"])
    assert code == cli.EXIT_OK, out
    assert json.loads(out)["result"]["canonical"] == f"{int('3' * 2150) ** 2}*x1 + 1{'0' * 4299}"


HUGE = "1" + "0" * 400  # beyond the largest float


def test_coefficient_beyond_float_range_is_an_input_error(capsys):
    for argv in (
        ["classify", "--", f"{HUGE}*x1 - u1 + x2"],
        ["roots", "--", f"{HUGE}*x1 - u1"],
        ["sample2d", "--", f"{HUGE}*x1 - u2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT and out == "", argv
        assert err.startswith("input error: ") and err.endswith("outside the float range\n"), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv
    # exact rational work alone never converts the coefficient to a float
    code, out, _ = run_cli(capsys, ["hyperplanes", "--", f"{HUGE}*x1 - u1 + x2"])
    assert code == 0 and json.loads(out)["command"] == "hyperplanes"


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["transversal", "--coords", "1", "2", "--", "2*x1 - u1 + 1"],
            "transversal on an ambient-1 polynomial needs 0 --coords values",
        ),
        (
            ["transversal", "--ambient", "2", "--coords", "0", "--", "2*x1 - u1 + 1"],
            "--root-of is required when the polynomial has n >= 2",
        ),
        (
            ["transversal", "--ambient", "2", "--coords", "0", "--root-of", "x1 + x2", "--", "2*x1 - u1 + 1"],
            "--root-of must be a 1-variable exponential polynomial",
        ),
        (["transversal", "--", "x1^2 + 1"], "no certified roots to lift"),
        (["transversal", "--root-index", "5", "--", "2*x1 - u1 + 1"], "--root-index out of range 0..1"),
        (
            ["transversal", "--", "x1"],
            "every certified root enclosure contains x1 = 0; select one explicitly "
            "with --root-index to see the violation",
        ),
        (["sample2d", "--", "x1 - u1"], "sample2d requires a 2-variable exponential polynomial"),
        (["classify1e", "--", "0"], "cannot classify the zero polynomial"),
    ],
)
def test_refusals_exit_2_with_one_stderr_line(capsys, argv, line):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"hypothesis violation: {line}\n")


def test_wrong_driver_exit_code(capsys):
    code, _, err = run_cli(capsys, ["roots", "x1*exp(x2)"])
    assert code == 2 and "hypothesis violation" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["hyperplanes", "x1*u2 + x2*u1 - x1 - x2", "--output", str(target)]
    )
    assert code == 0
    assert target.read_text() == out
    payload = json.loads(target.read_text())
    assert payload["result"]["count"] == 3

    # an unwritable path is an input error after the report is printed
    missing = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, ["canon", "x1", "--output", str(missing)])
    assert code == cli.EXIT_INPUT and json.loads(out)["result"]["canonical"] == "x1"
    assert err.startswith("canonical poly: x1\ninput error: cannot write the report: ")
    assert err.count("\n") == 2 and "Traceback" not in err and not missing.exists()


def test_failed_corpus_check_still_reports(capsys, monkeypatch):
    checks = [corpus.CorpusCheck("holds", True, ""), corpus.CorpusCheck("breaks", False, "planted")]
    monkeypatch.setattr(corpus, "run_all", lambda: checks)
    code, out, err = run_cli(capsys, ["verify-paper"])
    assert code == cli.EXIT_INTERNAL
    report = json.loads(out)
    assert report["command"] == "verify-paper" and report["input"] is None
    assert (report["result"]["passed"], report["result"]["failed"]) == (1, 1)
    assert "FAIL  breaks  (planted)" in err and "1/2 corpus checks passed" in err


def test_timings_flag_adds_measurements(capsys):
    _, out, _ = run_cli(capsys, ["canon", "x1", "--timings"])
    report = json.loads(out)
    assert report["timings"] is not None and report["timings"]["totalMs"] >= 0.0


def test_classify1e_summary_parenthesizes_repeated_slice_factors(capsys):
    code, out, err = run_cli(capsys, ["classify1e", "(x2 + 1)^2 + x1*u1"])
    assert code == 0
    assert "slice factor (x2 + 1)^2: component" in err
    factors = json.loads(out)["result"]["sliceComponents"]
    assert factors == [{"factor": "x2 + 1", "multiplicity": 2, "realPoints": True}]


def test_classify_unknown_oracle_is_inconclusive(capsys):
    # A planted product on 6 active variables: the oracle's divisor hunt is
    # skipped, so it answers Unknown, and an unverified premise supports no
    # IrreducibleSet verdict.
    text = "(x1*u2 - 2*x2 - x3 + 1)*(x1 + x3*u4 + 4*x4 - 3)"
    code, out, err = run_cli(capsys, ["classify", "--ambient", "4", "--", text])
    assert code == 0
    report = json.loads(out)
    statuses = {h["hypothesis"]: h["status"] for h in report["hypothesisLog"]}
    assert statuses["Z(p) irreducible"] == "unverified"
    assert report["result"]["verdict"] == "Inconclusive"
    assert report["result"]["conditionality"] == "ConditionalOnAssertedHypotheses"
    assert err.startswith("verdict: Inconclusive (ConditionalOnAssertedHypotheses)")


def test_one_variable_dimension_needs_a_certified_root(capsys):
    # e^x1 - 1 - x1 only touches zero at 0, and x1 - 2 e^x1 has no root, but
    # the default search domain is a heuristic bound: neither verifies nor
    # refutes dim Z(f) = n-1.  They logged "verified" with 0 certified roots
    # and "failed" with "the zero set appears empty".
    for text, leftovers in (("u1 - 1 - x1", 1), ("(x1^2 + 1)*(x1 - 2*u1)", 0)):
        code, out, err = run_cli(capsys, ["classify", "--ambient", "1", "--", text])
        assert code == 0, err
        report = json.loads(out)
        [check] = [h for h in report["hypothesisLog"] if h["hypothesis"] == "dim Z(f) = n-1"]
        assert check["status"] == "unverified"
        assert check["detail"] == (
            f"no certified root and {leftovers} uncertified leftover intervals on the "
            "default search domain [-8, 8], a heuristic bound that roots may lie beyond"
        )
        assert report["result"]["roots"] == []
        assert report["result"]["verdict"] == "Inconclusive"
        assert report["result"]["conditionality"] == "ConditionalOnAssertedHypotheses"


def test_one_variable_origin_note_follows_the_root_certificates(capsys):
    # Both inputs vanish at 0.  2*x1 + 1 - e^x1 has a certified simple root
    # there; e^x1 - 1 - x1 only touches zero, an uncertified leftover that
    # the report does not list, so the note must not point to the roots.
    code, out, _ = run_cli(capsys, ["classify", "--ambient", "1", "--", "2*x1 - u1 + 1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["roots"][0] == {"enclosure": [0.0, 0.0], "kind": "NewtonContraction", "residualBound": 0.0}
    assert result["notes"] == [
        "the origin lies in the zero set (restriction to x1 = 0 vanishes); a point is "
        "reported through the root certificates, not as a component"
    ]
    code, out, _ = run_cli(capsys, ["classify", "--ambient", "1", "--", "u1 - 1 - x1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["roots"] == []
    assert result["notes"] == [
        "the origin lies in the zero set (restriction to x1 = 0 vanishes), but no "
        "certified root encloses it; it is a point, not a component"
    ]


def test_classify_empty_algebraic_zero_set_is_inconclusive(capsys):
    code, out, _ = run_cli(capsys, ["classify", "x1^2 + 1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["degenerate"] and result["roots"] == []
    assert result["verdict"] == "Inconclusive"


def test_both_drivers_agree_on_the_two_point_line(capsys):
    results = []
    for command in ("classify", "classify1e"):
        code, out, _ = run_cli(capsys, [command, "2*x1 - u1 + 1"])
        assert code == 0
        results.append(json.loads(out)["result"])
    codim1, single = results
    assert codim1["verdict"] == single["verdict"] == "IrreducibleSet"
    assert codim1["residual"] == single["residual"]
    assert codim1["roots"] == single["roots"]


def test_single_exponential_note_leaves_the_label_to_the_log(capsys):
    # dim Z(f) = n-1 stays unverified at n = 3, so the label is conditional
    # on that hypothesis; the note only says Schanuel's conjecture is not
    # needed, and no longer calls the classification unconditional.
    text = "(x3)*(-5) + (u3 - 1)*(2*x1*x2*u3 + 3*x1*x2 - 4*x1 - u3)"
    code, out, _ = run_cli(capsys, ["classify", "--ambient", "3", "--", text])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["conditionality"] == "ConditionalOnAssertedHypotheses"
    assert result["notes"][0] == (
        "single-exponential input: the classification does not rest on Schanuel's conjecture"
    )
    assert not any("unconditional" in note for note in result["notes"])


def test_codim1_certificate_on_two_variable_inputs(capsys):
    # dim Z(f) = n-1 is verified by a sign change at two quoted points, or
    # unverified, and the label follows: an unverified hypothesis weakens it.
    cases = [
        ("x1^2 + x2^2 - u1 - 1", "verified", "Unconditional"),
        ("x1*u2 - x2*u1 + 3", "verified", "ConditionalOnSchanuel"),
        ("(x1 - u2)^2 + (x2 - 1)^2", "unverified", "ConditionalOnAssertedHypotheses"),
    ]
    for text, status, label in cases:
        code, out, err = run_cli(capsys, ["classify", text])
        assert code == 0
        report = json.loads(out)
        [check] = [h for h in report["hypothesisLog"] if h["hypothesis"] == "dim Z(f) = n-1"]
        assert check["status"] == status, text
        points = re.findall(r"f\((-?\d+/3, -?\d+/3)\)", check["detail"])
        assert len(points) == (2 if status == "verified" else 0), text
        result = report["result"]
        assert (result["verdict"], result["conditionality"]) == ("IrreducibleSet", label), text
        assert err.startswith(f"verdict: IrreducibleSet ({label})")


def test_power_beyond_float_range_keeps_cells_in_the_box(capsys):
    # x1^4 on [0, 1e100] is beyond the float range: the enclosure widens to
    # infinity instead of raising, and the quadtree keeps every cell.
    code, out, err = run_cli(capsys, ["sample2d", "--box", "0", "1e100", "0", "1", "--depth", "2", "--", "x1^4 - u2"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["count"] == len(result["cells"]) > 0
    for x0, x1, y0, y1 in result["cells"]:
        assert 0.0 <= x0 < x1 <= 1e100 and 0.0 <= y0 < y1 <= 1.0


def strict_json(text):
    """The report parsed as standard JSON, which has no Infinity or NaN."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_midpoint_near_the_top_of_the_float_range(capsys):
    # lo + hi overflows for an enclosure near 1.6e308 and a box side
    # [1e308, 1.7e308]; their midpoints must stay finite and inside.
    c = str(16 * 10**307)
    argv = ["transversal", "--ambient", "2", "--coords", "1", "--root-of", f"x1 - {c}"]
    argv += ["--domain", "1e307", "1.7e308", "--", f"(x1 - {c})*(x2 + 1)"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    [check] = strict_json(out)["result"]["checks"]
    lo, hi = check["rootEnclosure"]
    assert check["point"] == [1.6000000000000002e308, 1.0, None]
    assert lo <= check["point"][0] <= hi
    assert (check["verdict"], check["tangencyMargin"]) == ("Undetermined", None)

    c = str(12 * 10**307)
    code, out, err = run_cli(capsys, ["sample2d", f"x1 + x2 - {c}", "--box", "1e308", "1.7e308", "0", "1", "--depth", "2"])
    assert code == 0, err
    result = strict_json(out)["result"]
    assert result["cells"] == [[1.175e308, 1.35e308, k / 4, (k + 1) / 4] for k in range(4)]


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    """Every report from the one shared parser equals the report from a new parser."""
    target = tmp_path / "report.json"
    line, axes, lifted = "2*x1 + 1 - exp(x1)", "x1*u2 + x2*u1 - x1 - x2", "2*x1 - u1 + 1"
    with_options = [
        ["sample2d", "x1^2 + x2^2 - u1", "--rigorous", "--depth", "3"],
        ["canon", line, "--timings"],
        ["hyperplanes", axes, "--output", str(target)],
        ["roots", line, "--domain", "-1", "1"],
        ["classify", axes, "--attempts", "2"],
        ["transversal", lifted, "--ambient", "2", "--coords", "0", "--root-of", line],
    ]
    without = [
        ["sample2d", "x1^2 + x2^2 - u1", "--depth", "3"],
        ["canon", line],
        ["hyperplanes", axes],
        ["roots", line],
        ["classify", axes],
        ["transversal", lifted],
    ]
    malformed = [["roots", line, "--domain", "1"], ["roots"], ["no-such-command"]]
    sequence = with_options + without + malformed + with_options

    def reports():
        seen = []
        for argv in sequence:
            target.unlink(missing_ok=True)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out = re.sub(r'"totalMs": [-+.e0-9]+', '"totalMs": T', captured.out)
            written = target.read_text() if target.exists() else None
            seen.append((code, out, captured.err, written))
        return seen

    reused = reports()
    k = len(with_options)
    first, plain, bad = reused[:k], reused[k : 2 * k], reused[2 * k : 2 * k + len(malformed)]
    assert [code for code, *_ in bad] == [2] * len(malformed)
    assert first[2][3] == first[2][1] and plain[2][3] is None  # --output
    assert '"totalMs": T' in first[1][1] and '"timings": null' in plain[1][1]  # --timings
    assert '"mode": "rigorous"' in first[0][1] and '"mode": "fast"' in plain[0][1]  # --rigorous
    assert reused[-k:] == first
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert reports() == reused
