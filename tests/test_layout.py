"""Layout rules of the package: standard-library runtime, no private imports,
output written by the command line's ``main`` and ``_emit`` alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "expalg"


def _imports():
    """(file name, line, node) for every import statement of the package."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node.lineno, node


def test_absolute_imports_are_standard_library():
    bad = []
    for name, line, node in _imports():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue
        for m in modules:
            if m.split(".")[0] not in sys.stdlib_module_names:
                bad.append(f"{name}:{line} {m}")
    assert not bad, bad


def test_no_private_names_imported_across_modules():
    bad = []
    for name, line, node in _imports():
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            bad += [f"{name}:{line} {p}" for p in parts if p.startswith("_")]
    assert not bad, bad


def test_every_exported_name_resolves():
    import expalg

    missing = [name for name in expalg.__all__ if not hasattr(expalg, name)]
    assert not missing, missing
    assert len(set(expalg.__all__)) == len(expalg.__all__)


def test_only_main_and_emit_write_output():
    # The command handlers return data; the summary is rendered from the
    # report by cli.summary, and main and _emit (through _say) print it.
    writers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = ast.unparse(node.func)
                    if callee in ("print", "_say") or callee.startswith(("sys.stdout", "sys.stderr")):
                        writers.append(f"{path.name}:{func.name}")
    assert sorted(set(writers)) == ["cli.py:_emit", "cli.py:_say", "cli.py:main"], writers
