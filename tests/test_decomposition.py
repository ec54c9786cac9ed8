import contextlib
import io
import json
import random
from itertools import combinations

import pytest

from capfree import decomposition, selftest
from capfree.cli import main
from capfree.construct import GeneratorParams, generate_instance
from capfree.decomposition import (clique_cutset_tree, decompose,
                                   find_clique_cutset, tree_to_dot)
from capfree.graphs import (Graph, complete, gnp, hole, induced_subgraph,
                            path, serialize_graph)
from capfree.oracles import brute_solve
from capfree.recognition import recognize
from capfree.solvers import (chromatic_number, clique_number, mwss,
                             q_color_graph)
from capfree.twins import COMPLETE_ATOM, extract_skeleton

K4_MINUS_EDGE = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TWO_TRIANGLES = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_k4_minus_edge_cutset():
    found = find_clique_cutset(K4_MINUS_EDGE)
    assert found is not None
    cutset, (h1, h2) = found
    assert cutset == (2, 3)
    assert {h1, h2} == {(0,), (1,)}


def test_c5_has_no_cutset():
    assert find_clique_cutset(hole(5)) is None


def test_p4_cutset():
    cutset, (h1, h2) = find_clique_cutset(path(4))
    assert cutset in ((1,), (2,))
    assert not any(path(4).has_edge(a, b) for a in h1 for b in h2)


def test_disconnected_splits_on_empty_clique():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    cutset, (h1, h2) = find_clique_cutset(g)
    assert cutset == ()
    assert {frozenset(h1), frozenset(h2)} \
        == {frozenset({0, 1}), frozenset({2, 3, 4})}


def test_tiny_graphs_have_no_cutset():
    assert find_clique_cutset(Graph(0, [])) is None
    assert find_clique_cutset(Graph(1, [])) is None
    assert find_clique_cutset(complete(2)) is None
    assert find_clique_cutset(complete(6)) is None


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cutset_detection_exhaustive(n):
    for g in all_graphs(n):
        mine = find_clique_cutset(g)
        ref = brute_solve(g, "clique-cutset")
        assert (mine is None) == (ref.value == 0)
        if mine is not None:
            cutset, (h1, h2) = mine
            assert g.is_clique(cutset)
            assert h1 and h2
            assert not any(g.has_edge(a, b) for a in h1 for b in h2)


def test_p4_tree_atoms():
    tree = clique_cutset_tree(path(4))
    assert tree.atoms() == [(0, 1), (1, 2), (2, 3)] or \
        sorted(tree.atoms()) == [(0, 1), (1, 2), (2, 3)]


def test_c5_tree_single_leaf():
    tree = clique_cutset_tree(hole(5))
    assert tree.atoms() == [(0, 1, 2, 3, 4)]


def test_two_triangles_tree():
    tree = clique_cutset_tree(TWO_TRIANGLES)
    assert sorted(tree.atoms()) == [(0, 1, 2), (1, 2, 3)]
    (node,) = tree.internal_nodes()
    assert node.cutset == (1, 2)


@pytest.mark.parametrize("seed", range(40))
def test_tree_invariants_random(seed):
    g = gnp(10, (0.25, 0.4, 0.55)[seed % 3], 52 + seed)
    tree = clique_cutset_tree(g)
    atoms = tree.atoms()
    assert set().union(*(set(a) for a in atoms)) == set(g.vertices())
    edge_union = set()
    for a in atoms:
        sub, back = induced_subgraph(g, a)
        edge_union |= {(back[u], back[v]) for u, v in sub.edges()}
    assert edge_union == set(g.edges())
    for a in atoms:
        sub, _ = induced_subgraph(g, a)
        assert brute_solve(sub, "clique-cutset").value == 0, \
            "every leaf must be an atom"
    for a, b in combinations(map(set, atoms), 2):
        assert not a <= b and not b <= a, "no leaf lies inside another"
    for node in tree.internal_nodes():
        assert node.left.is_leaf, "the tree is a caterpillar"
        assert g.is_clique(node.cutset)
        left = set(node.left.vertices) - set(node.cutset)
        right = set(node.right.vertices) - set(node.cutset)
        assert left and right
        assert not any(g.has_edge(a, b) for a in left for b in right)
        assert set(node.left.vertices) | set(node.right.vertices) \
            == set(node.vertices)


@pytest.mark.parametrize("seed", range(20))
def test_leaf_bound_on_connected_graphs(seed):
    g = gnp(11, 0.35, 1234 + seed)
    comps = brute_solve(g, "clique-cutset")
    tree = clique_cutset_tree(g)
    if comps.witness != ():   # connected
        assert len(tree.atoms()) <= max(1, g.n - 1)


def test_tree_nodes_compare_and_print_as_dataclasses_do():
    root = clique_cutset_tree(path(3)).root
    assert repr(root) == (
        "DecompositionNode(atom=None, cutset=(1,), left=DecompositionNode("
        "atom=(1, 2), cutset=None, left=None, right=None), "
        "right=DecompositionNode(atom=(0, 1), cutset=None, left=None, "
        "right=None))")
    assert root == clique_cutset_tree(path(3)).root
    assert hash(root) == hash(clique_cutset_tree(path(3)).root)
    assert root != root.right and root.left != root.right
    assert root.__eq__("not a node") is NotImplemented


def test_tree_is_its_pieces_and_builds_its_node_view_on_read():
    tree = clique_cutset_tree(path(3))
    assert tree.pieces == (((1,), (1, 2)), ((), (0, 1)))
    assert repr(tree) == ("DecompositionTree(graph=Graph(n=3, m=2), "
                          "pieces=(((1,), (1, 2)), ((), (0, 1))))")
    assert "root" not in vars(tree)
    assert tree == clique_cutset_tree(path(3))
    assert hash(tree) == hash(clique_cutset_tree(path(3)))
    assert tree != clique_cutset_tree(path(4))
    assert [node.cutset for node in tree.internal_nodes()] == [(1,)]
    assert [leaf.atom for leaf in tree.leaves()] == tree.atoms()
    assert tree.root is tree.root
    lone = clique_cutset_tree(hole(5))
    assert lone.internal_nodes() == [] and lone.leaves() == [lone.root]


def test_dot_export():
    dot = tree_to_dot(clique_cutset_tree(TWO_TRIANGLES))
    assert dot.startswith("graph decomposition {")
    assert 'cutset {2,3}' in dot
    assert dot.count("atom") == 2


# The glue-10 even-hole-free graph of the benchmark's seed-1 glued corpus.
GLUED = generate_instance(GeneratorParams(
    seed=773644157, ear_count=2, max_blowup=1, max_universal=1,
    glue_count=10))[0]
GLUED_CHI = chromatic_number(GLUED)[0]


def atoms_built(monkeypatch, call):
    """The Atom records decompose builds while call runs."""
    built = []

    class Counted(decomposition.Atom):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(decomposition, "Atom", Counted)
    call()
    return built


def test_decompose_gives_the_tree_and_one_atom_per_leaf():
    tree, atoms = decompose(GLUED)
    atoms = list(atoms)
    assert tree.atoms() == clique_cutset_tree(GLUED).atoms()
    assert [atom.vertices for atom in atoms] == tree.atoms()
    assert all(atom.graph == induced_subgraph(GLUED, atom.vertices)[0]
               for atom in atoms)


@pytest.mark.parametrize("call", [
    lambda: recognize(GLUED, "cap-even-hole-free"),
    lambda: recognize(GLUED, "cap-4hole-odd-signable"),
    lambda: clique_number(GLUED),
    lambda: chromatic_number(GLUED),
    lambda: q_color_graph(GLUED, GLUED_CHI),
    lambda: mwss(GLUED)],
    ids=["recognize-ehf", "recognize-os", "clique_number", "chromatic",
         "q_color_graph-chi", "mwss"])
def test_every_command_builds_one_atom_per_leaf(monkeypatch, call):
    leaves = len(clique_cutset_tree(GLUED).leaves())
    assert leaves > 2
    assert len(atoms_built(monkeypatch, call)) == leaves


def test_q_color_graph_stops_building_atoms_at_the_first_failure(
        monkeypatch):
    found = []
    built = len(atoms_built(
        monkeypatch,
        lambda: found.append(q_color_graph(GLUED, GLUED_CHI - 1))))
    assert found == [None]
    assert 1 <= built < len(clique_cutset_tree(GLUED).leaves())


def test_no_answer_builds_the_node_view(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a DecompositionNode was built")

    monkeypatch.setattr(decomposition, "DecompositionNode", refuse)
    with pytest.raises(AssertionError):
        clique_cutset_tree(GLUED).root
    leaves = len(clique_cutset_tree(GLUED).pieces)
    assert recognize(GLUED, "cap-even-hole-free").accepted
    assert recognize(GLUED, "cap-4hole-odd-signable").accepted
    assert clique_number(GLUED)[0] >= 2
    assert GLUED.is_stable(mwss(GLUED).vertices)
    assert chromatic_number(GLUED)[0] == GLUED_CHI
    assert q_color_graph(GLUED, GLUED_CHI) is not None
    assert q_color_graph(GLUED, GLUED_CHI - 1) is None
    file = tmp_path / "glued.graph"
    file.write_text(serialize_graph(GLUED), encoding="utf-8")
    for flags in ([], ["--dot"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decompose", *flags, str(file)]) == 0
        if flags:
            assert out.getvalue().count("shape=box") == leaves
        else:
            assert json.loads(out.getvalue())["leaf_count"] == leaves


def test_atom_treewidth_criterion_builds_one_atom_per_leaf(monkeypatch):
    leaves = sum(len(clique_cutset_tree(g).leaves())
                 for _, g, _ in selftest.standard_instances())
    result = []
    built = len(atoms_built(
        monkeypatch,
        lambda: result.append(selftest.criterion_6_atom_treewidth())))
    assert result[0].passed
    assert built == leaves
    assert result[0].detail.startswith(f"{leaves} atoms: ")


def friendship(k):
    """k triangles sharing vertex 0."""
    return Graph(2 * k + 1, [e for i in range(1, 2 * k, 2)
                             for e in ((0, i), (0, i + 1), (i, i + 1))])


def with_pendant_triangle(g):
    """g with a triangle hung on its vertex 0: one more, complete atom."""
    return Graph(g.n + 2, g.edges() + [(0, g.n), (0, g.n + 1),
                                       (g.n, g.n + 1)])


def commands(g):
    chi = chromatic_number(g)[0]
    return [lambda: recognize(g, "cap-even-hole-free"),
            lambda: recognize(g, "cap-4hole-odd-signable"),
            lambda: clique_number(g),
            lambda: mwss(g),
            lambda: chromatic_number(g),
            lambda: q_color_graph(g, chi),
            lambda: q_color_graph(g, chi - 1)]


COMMAND_IDS = ["recognize-ehf", "recognize-os", "clique_number", "mwss",
               "chromatic", "q_color_graph-chi", "q_color_graph-chi-1"]


def copies_and_extractions(monkeypatch, call):
    """The induced_subgraph and extract_skeleton calls decompose's atoms
    make while call runs, and the non-complete atoms it builds."""
    calls = {"induced_subgraph": 0, "extract_skeleton": 0}

    def counted(name):
        original = getattr(decomposition, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decomposition, name, counted(name))
    built = atoms_built(monkeypatch, call)
    return calls, sum(not atom.complete for atom in built)


@pytest.mark.parametrize("g", [path(300), friendship(50)],
                         ids=["path300", "friendship50"])
@pytest.mark.parametrize("i", range(len(COMMAND_IDS)), ids=COMMAND_IDS)
def test_complete_atoms_build_no_graph_and_run_no_extraction(
        monkeypatch, g, i):
    calls, _ = copies_and_extractions(monkeypatch, commands(g)[i])
    assert calls == {"induced_subgraph": 0, "extract_skeleton": 0}


@pytest.mark.parametrize("i", range(len(COMMAND_IDS)), ids=COMMAND_IDS)
def test_each_non_complete_atom_is_copied_and_extracted_once(
        monkeypatch, i):
    g = with_pendant_triangle(GLUED)
    atoms = list(decompose(g)[1])
    assert any(atom.complete for atom in atoms)
    assert sum(not atom.complete for atom in atoms) > 2
    calls, built = copies_and_extractions(monkeypatch, commands(g)[i])
    assert built >= 1
    assert calls == {"induced_subgraph": built, "extract_skeleton": built}


def random_chordal(n, seed):
    """Each new vertex joins a random clique of the graph so far, so the
    reverse insertion order eliminates simplicial vertices."""
    rng = random.Random(seed)
    nbrs = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        clique = [u]
        for x in rng.sample(sorted(nbrs[u]), len(nbrs[u])):
            if all(x in nbrs[y] for y in clique):
                clique.append(x)
        for x in rng.sample(clique, rng.randint(0, len(clique))):
            nbrs[v].add(x)
            nbrs[x].add(v)
    return Graph(n, [(u, v) for v in range(n) for u in nbrs[v] if u < v])


def pin_graphs():
    rng = random.Random(20)
    for _ in range(300):
        yield gnp(rng.randint(1, 14), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)),
                  rng.randrange(10 ** 6))
    for _ in range(100):
        yield random_chordal(rng.randint(1, 16), rng.randrange(10 ** 6))


def test_atom_completeness_and_graph_match_the_induced_atom():
    complete_atoms = other_atoms = 0
    for g in pin_graphs():
        for atom in decompose(g)[1]:
            sub = induced_subgraph(g, atom.vertices)[0]
            assert atom.complete == (extract_skeleton(sub) == COMPLETE_ATOM)
            assert (atom.extracted == COMPLETE_ATOM) == atom.complete
            assert atom.graph == sub
            complete_atoms += atom.complete
            other_atoms += not atom.complete
    assert complete_atoms > 100 and other_atoms > 100
