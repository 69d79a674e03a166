"""The runtime stays stdlib-only: every module of the package imports only
the standard library and smtkit itself. numpy, pytest and hypothesis are
test-only dependencies."""

import ast
import sys
from pathlib import Path

import smtkit

PACKAGE = Path(smtkit.__file__).parent


def absolute_imports(path: Path):
    """(line, module) of each absolute import in the module at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}:{line} imports {module}"
        for path in sources
        for line, module in absolute_imports(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"smtkit"}
    ]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom numpy import array\nfrom . import lm\n", encoding="utf-8")
    assert list(absolute_imports(module)) == [(1, "os.path"), (2, "numpy")]
