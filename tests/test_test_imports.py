"""The test modules share helpers through ``references.py`` only.

A test module that imports another test module runs that module's
collection-time work again and couples two suites; the shared reference
routes live in ``references.py`` instead.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SHARED = {"references"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_test_modules_import_no_other_test_module():
    local = {p.stem for p in TESTS.glob("*.py")}
    offenders = {
        path.name: sorted(imported_modules(path) & (local - SHARED - {path.stem}))
        for path in sorted(TESTS.glob("*.py"))
    }
    assert {name: mods for name, mods in offenders.items() if mods} == {}
