"""Static checks on the package source: no module imports another
module's private names, and every module parses as the oldest Python that
pyproject.toml declares."""

import ast
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


def test_every_module_parses_as_python_3_10():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
