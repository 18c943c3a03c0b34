#!/usr/bin/env python3
"""Name what changed between two report dumps of ``replay_reports.py --dump``.

    python3 tests/replay_reports.py PARENT --seeds 1 --dump before > /dev/null
    python3 tests/replay_reports.py .      --seeds 1 --dump after  > /dev/null
    python3 tests/report_diff.py before after [--allow PATH]...

compares the files of the two directories by name.  Each file holds one
report's exit code, stderr lines and stdout, and a difference is named by
its key path, such as ``stdout.result.certified[*].kind``: list indices are
written ``[*]``, so one path gathers a change across the entries of a list
and across reports.  A list whose length changed gives the path
``len(<path of the list>)`` with the two lengths, and its common entries are
compared as well.  Values differ when their JSON types or values differ, so
``1`` and ``1.0`` differ, and so do two floats one unit apart in the last
digit.  The output, empty when nothing differs, is

- one line per changed report, and per report in only one directory;
- a table of key paths, each with its number of differences and of reports;
- one example per key path: a report, the concrete path, old and new value.

``--allow PATH`` marks every difference at PATH or below it, as written in
the table (``len(...)`` is read as its inner path), ``allowed``: it is
printed but not counted.  The exit code is 0 when every difference is
allowed and no report is in only one directory, and 1 otherwise.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path


class _Absent:
    """A key that one side's object does not have."""

    def __repr__(self) -> str:
        return "<absent>"


ABSENT = _Absent()
#: an example value longer than this is cut
SHOWN_CHARS = 160


def differences(old, new, path: str = "", generic: str = ""):
    """(concrete path, key path, old, new) for each difference of two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            dot = "." if path else ""
            yield from differences(
                old.get(key, ABSENT), new.get(key, ABSENT), f"{path}{dot}{key}", f"{generic}{dot}{key}"
            )
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"len({path})", f"len({generic})", len(old), len(new)
        for k, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{k}]", f"{generic}[*]")
    elif not (type(old) is type(new) and (old == new or old != old and new != new)):  # NaN equals NaN here
        yield path, generic, old, new


def covers(prefix: str, generic: str) -> bool:
    """Whether the key path ``generic`` is ``prefix`` or lies below it."""
    if generic.startswith("len("):
        generic = generic[4:-1]
    return generic == prefix or generic.startswith((prefix + ".", prefix + "["))


def shown(value) -> str:
    text = repr(value) if value is ABSENT else json.dumps(value, sort_keys=True)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


def compare(a: Path, b: Path, allow: list[str]) -> tuple[list[str], bool]:
    """(output lines, whether any difference counts) of two dump directories."""
    names_a = {p.name for p in a.glob("*.json")}
    names_b = {p.name for p in b.glob("*.json")}
    lines = [f"only in {a}: {name}" for name in sorted(names_a - names_b)]
    lines += [f"only in {b}: {name}" for name in sorted(names_b - names_a)]
    counted = bool(lines)
    changes, reports, examples = Counter(), Counter(), {}
    changed = []
    for name in sorted(names_a & names_b):
        found = list(differences(json.loads((a / name).read_text()), json.loads((b / name).read_text())))
        if not found:
            continue
        changed.append(f"  {name}  ({len(found)} difference{'s' if len(found) > 1 else ''})")
        for path, generic, old, new in found:
            changes[generic] += 1
            examples.setdefault(generic, (name, path, old, new))
        reports.update({generic for _, generic, _, _ in found})
    if not changes:
        return lines, counted
    lines.append(f"changed reports: {len(changed)} of {len(names_a & names_b)}")
    lines += changed
    width = max(len(g) for g in changes)
    lines.append(f"{'key path':<{width}}  differences  reports")
    for generic in sorted(changes):
        allowed = any(covers(p, generic) for p in allow)
        counted |= not allowed
        mark = "  allowed" if allowed else ""
        lines.append(f"{generic:<{width}}  {changes[generic]:>11}  {reports[generic]:>7}{mark}")
    lines.append("examples:")
    for generic in sorted(changes):
        name, path, old, new = examples[generic]
        lines += [f"  {generic}", f"    {name}  {path}", f"    old: {shown(old)}", f"    new: {shown(new)}"]
    return lines, counted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="dump directory of the old reports")
    ap.add_argument("b", type=Path, help="dump directory of the new reports")
    ap.add_argument("--allow", action="append", default=[], metavar="PATH", help="print but do not count changes here")
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            ap.error(f"not a directory: {d}")
    lines, counted = compare(args.a, args.b, args.allow)
    for line in lines:
        print(line)
    return 1 if counted else 0


if __name__ == "__main__":
    sys.exit(main())
