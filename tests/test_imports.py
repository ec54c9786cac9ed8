"""Static checks on the package source: no module imports another
module's private names, every import names the standard library or the
package itself (pyproject.toml declares dependencies = []), and every
module parses as the oldest Python that pyproject.toml declares."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "capfree"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("capfree")
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports "
                             f"{node.module}.{alias.name}")
    return found


def test_no_module_imports_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _private_imports(path)]
    assert offenders == []


def _outside_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "capfree" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _outside_imports(path)]
    assert offenders == []


def test_every_module_parses_as_python_3_10():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
