"""Static checks on the package source: no module imports another
module's private names, every top-level private name is used somewhere
else in the package, every import names the standard library or the
package itself (pyproject.toml declares dependencies = []), and every
module parses as the oldest Python that pyproject.toml declares; package
modules are imported only at module level, and those imports form an
acyclic graph.  The public names of the package are pinned, so that each
one added or dropped shows in the diff."""

import ast
import sys
from pathlib import Path

import capfree

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "capfree"

# sorted(capfree.__all__): every name capfree/__init__.py binds, the
# package modules it imports among them.
PUBLIC_NAMES = [
    "BruteResult", "CertificateError", "DecompositionNode",
    "DecompositionTree", "Ear", "EarSequence", "ForbiddenWitness",
    "GeneratorParams", "Graph", "GraphFormatError", "NiceDecomposition",
    "RecognitionVerdict", "SearchBudgetExceeded", "SkeletonDecomposition",
    "SkeletonReject", "StableSetResult", "TreeDecomposition",
    "UnsupportedInstanceError", "Xoshiro256StarStar",
    "add_universal_clique", "blow_up", "brute_solve", "certify",
    "chromatic_number", "clique_cutset_tree", "clique_number",
    "clique_number_via_skeleton", "combine_colorings", "complete",
    "construct", "construct_named", "cube", "decomposition",
    "detect_4hole", "detect_cap_fast", "enumerate_chordless_cycles",
    "extract_skeleton", "find_clique_cutset", "find_forbidden_induced",
    "generate_instance", "glue_atoms", "gnp", "graphs", "greedy_color",
    "hajos", "hole", "holes_of", "induced_subgraph", "is_proper_coloring",
    "lift_tree_decomposition", "min_fill_decomposition", "mwss",
    "nice_decomposition", "odd_signable_signing", "oracles", "parse_graph",
    "path", "q_color", "q_color_graph", "random_skeleton", "recognition",
    "recognize", "reconstruct_atom", "rng", "serialize_graph",
    "skeleton_from_ears", "skeleton_tree_decomposition", "solvers",
    "tree_to_dot", "treewidth", "triangulation_from_ears", "twin_classes",
    "twins", "validate_good_ear", "verify_witness", "vertex_set",
]


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


def _private_definitions(tree: ast.Module):
    """(name, node) of each top-level private function, class or
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)]
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(ref == name and id(node) not in inside
                       for ref, node in references):
                dead.append(f"{module}:{definition.lineno} {name}")
    assert dead == []


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


def _package_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, str]]:
    """(node, module) for every import of a package module: `from .x
    import` and `from capfree.x import` name x, `from . import x` names
    each x."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").startswith("capfree."):
            found.append((node, node.module.partition(".")[2]))
        elif node.level == 1 and node.module:
            found.append((node, node.module))
        elif node.level == 1:
            found.extend((node, alias.name) for alias in node.names)
    return found


def test_no_function_imports_a_package_module():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        offenders += [f"{path.name}:{node.lineno} imports .{module}"
                      for node, module in _package_imports(tree)
                      if id(node) not in top]
    assert offenders == []


def test_package_import_graph_is_acyclic():
    graph = {path.stem: sorted({module for _, module in _package_imports(
                 ast.parse(path.read_text(encoding="utf-8")))})
             for path in sorted(PACKAGE.glob("*.py"))}
    # Depth-first search; a module met again while still on the path
    # closes a cycle.
    done: set[str] = set()
    cycles = []

    def visit(module: str, trail: list[str]) -> None:
        if module in trail:
            cycles.append(" -> ".join(trail[trail.index(module):]
                                      + [module]))
            return
        if module in done:
            return
        for imported in graph.get(module, []):
            visit(imported, trail + [module])
        done.add(module)

    for module in graph:
        visit(module, [])
    assert cycles == []


def test_public_names_are_pinned():
    assert sorted(capfree.__all__) == PUBLIC_NAMES
