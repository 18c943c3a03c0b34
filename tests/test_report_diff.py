"""``report_diff.py`` on synthetic pairs of report dumps.

Each pair differs in one way: an added key, a removed key, a list that
changed length, a float changed in its last digit, or stderr only; an
identical pair prints nothing.  The module needs no pytest:

    PYTHONPATH=src python3 tests/test_report_diff.py
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import report_diff
from util import run_standalone

#: one dumped report, as ``replay_reports.py --dump`` writes it
BASE = {
    "exitCode": 0,
    "stderr": ["2 certified roots on [-5.0, 5.0]", "  SignChange: [-1.0, -0.5]", "  SignChange: [0.5, 1.0]"],
    "stdout": {
        "command": "roots",
        "result": {"count": 2, "certified": [{"enclosure": [-1.0, -0.5]}, {"enclosure": [0.5, 1.0]}], "tolerance": 0.1},
        "timings": {"totalMs": "T"},
    },
}


def diff(edit, *options):
    """(exit code, printed lines) of report_diff on BASE and BASE after ``edit``,
    each dumped as one report named ``r.json``."""
    new = copy.deepcopy(BASE)
    edit(new)
    with tempfile.TemporaryDirectory() as tmp:
        for side, record in (("a", BASE), ("b", new)):
            (Path(tmp) / side).mkdir()
            (Path(tmp) / side / "r.json").write_text(json.dumps(record))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = report_diff.main([f"{tmp}/a", f"{tmp}/b", *options])
    return code, out.getvalue().splitlines()


def table(lines):
    """{key path: (differences, reports)} read off the printed table."""
    start, end = lines.index(next(x for x in lines if x.startswith("key path"))), lines.index("examples:")
    return {row.split()[0]: tuple(int(v) for v in row.split()[1:3]) for row in lines[start + 1 : end]}


def example(lines, path):
    """The (old, new) lines printed for ``path``."""
    k = lines.index(f"  {path}")
    return lines[k + 2].strip(), lines[k + 3].strip()


def test_identical_pair_prints_nothing():
    assert diff(lambda r: None) == (0, [])


def test_added_and_removed_keys():
    code, lines = diff(lambda r: r["stdout"]["result"].update(residual=[]))
    assert code == 1 and lines[:2] == ["changed reports: 1 of 1", "  r.json  (1 difference)"], lines
    assert table(lines) == {"stdout.result.residual": (1, 1)}
    assert example(lines, "stdout.result.residual") == ("old: <absent>", "new: []")
    code, lines = diff(lambda r: r["stdout"]["result"].pop("tolerance"))
    assert code == 1 and table(lines) == {"stdout.result.tolerance": (1, 1)}
    assert example(lines, "stdout.result.tolerance") == ("old: 0.1", "new: <absent>")


def test_list_that_changed_length():
    def drop_root(r):
        r["stdout"]["result"]["count"] = 1
        del r["stdout"]["result"]["certified"][1]
        r["stderr"][0] = "1 certified roots on [-5.0, 5.0]"
        del r["stderr"][2]

    code, lines = diff(drop_root)
    assert code == 1 and table(lines) == {
        "len(stderr)": (1, 1),
        "len(stdout.result.certified)": (1, 1),
        "stderr[*]": (1, 1),
        "stdout.result.count": (1, 1),
    }, lines
    assert example(lines, "len(stdout.result.certified)") == ("old: 2", "new: 1")
    assert example(lines, "stderr[*]") == ('old: "2 certified roots on [-5.0, 5.0]"', 'new: "1 certified roots on [-5.0, 5.0]"')


def test_float_changed_in_its_last_digit():
    def nudge(r):
        r["stdout"]["result"]["certified"][1]["enclosure"][0] = 0.5000000000000001

    code, lines = diff(nudge)
    assert code == 1 and table(lines) == {"stdout.result.certified[*].enclosure[*]": (1, 1)}, lines
    k = lines.index("  stdout.result.certified[*].enclosure[*]")
    assert lines[k + 1] == "    r.json  stdout.result.certified[1].enclosure[0]", lines
    assert example(lines, "stdout.result.certified[*].enclosure[*]") == ("old: 0.5", "new: 0.5000000000000001")
    # an int for a float of equal value is a change too
    code, lines = diff(lambda r: r["stdout"]["result"].update(count=2.0))
    assert code == 1 and table(lines) == {"stdout.result.count": (1, 1)}, lines


def test_change_in_stderr_only():
    code, lines = diff(lambda r: r["stderr"].__setitem__(1, "  SignChange: [-1.0, -0.25]"))
    assert code == 1 and table(lines) == {"stderr[*]": (1, 1)}, lines
    assert example(lines, "stderr[*]") == ('old: "  SignChange: [-1.0, -0.5]"', 'new: "  SignChange: [-1.0, -0.25]"')


def test_allowed_paths_print_but_do_not_count():
    def edit(r):
        r["stderr"][0] = "changed"
        r["stdout"]["timings"]["totalMs"] = 3.5

    code, lines = diff(edit, "--allow", "stderr", "--allow", "stdout.timings")
    assert code == 0 and table(lines) == {"stderr[*]": (1, 1), "stdout.timings.totalMs": (1, 1)}, lines
    assert all(x.endswith("  allowed") for x in lines[3:5]), lines
    code, lines = diff(edit, "--allow", "stderr")
    assert code == 1 and lines[4].startswith("stdout.timings.totalMs") and not lines[4].endswith("allowed"), lines
    # a prefix covers only whole keys: stdout.time is not stdout.timings
    code, lines = diff(edit, "--allow", "stderr", "--allow", "stdout.time")
    assert code == 1 and not lines[4].endswith("allowed"), lines


if __name__ == "__main__":
    run_standalone(globals())
