"""Layout rules of the package: standard-library runtime, no private imports."""

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
        bad += [f"{name}:{line} {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
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
