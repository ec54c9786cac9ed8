"""Long inputs run without hitting the interpreter's recursion limit, and
every answer still re-checks."""

import pytest

from capfree.decomposition import clique_cutset_tree, tree_to_dot
from capfree.graphs import Graph, hole, path
from capfree.solvers import (chromatic_number, is_proper_coloring, mwss,
                             q_color_graph)
from capfree.treewidth import TreeDecomposition, nice_decomposition

# (graph, atom count, chi, maximum stable set size with unit weights)
CASES = {
    "path1200": (path(1200), 1199, 2, 600),
    "hole601": (hole(601), 1, 3, 300),
    "isolated1500": (Graph(1500, []), 1500, 1, 1500),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_long_inputs_do_not_recurse(name):
    g, atoms, chi, alpha = CASES[name]
    tree = clique_cutset_tree(g)
    assert len(tree.atoms()) == atoms
    assert set().union(*map(set, tree.atoms())) == set(g.vertices())
    assert all(g.is_clique(node.cutset) for node in tree.internal_nodes())
    assert tree_to_dot(tree).count("shape=box") == atoms

    result = mwss(g)
    assert g.is_stable(result.vertices)
    assert result.weight == sum(g.weight(v) for v in result.vertices)
    assert result.weight == alpha

    value, colors = chromatic_number(g)
    assert value == chi and is_proper_coloring(g, colors, chi)

    colors = q_color_graph(g, 3)
    assert colors is not None and is_proper_coloring(g, colors, 3)


def test_long_path_decomposition_goes_nice():
    bags = tuple((i, i + 1) for i in range(1100))
    td = TreeDecomposition(bags, tuple((i, i + 1) for i in range(1099)))
    nd = nice_decomposition(td)
    assert nd.width == 1
    assert nd.nodes[nd.root].bag == ()
    assert nd.as_tree_decomposition().is_valid(path(1101))
