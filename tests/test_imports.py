"""No module of the package imports another module's private names."""

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
