"""Long inputs run without hitting the interpreter's recursion limit, and
every answer still re-checks."""

import copy
import hashlib
import json
import pickle
import time

import pytest

from capfree import treewidth
from capfree.construct import GeneratorParams, generate_instance
from capfree.decomposition import clique_cutset_tree, tree_to_dot
from capfree.graphs import (Graph, add_universal_clique, blow_up, hole,
                            path, serialize_graph)
from capfree.cli import main
from capfree.oracles import (ForbiddenWitness, brute_solve,
                             find_forbidden_induced, verify_witness)
from capfree.recognition import detect_4hole, detect_cap_fast, recognize
from capfree.solvers import (ceil_three_halves, chromatic_number,
                             clique_number, is_proper_coloring, mwss,
                             q_color_graph)
from capfree.oracles import SearchBudgetExceeded
from capfree.treewidth import (TreeDecomposition, TreewidthReject,
                               min_fill_decomposition, nice_decomposition,
                               skeleton_tree_decomposition)


def friendship(k):
    """k triangles sharing vertex 0: every atom holds that vertex, whose
    degree is 2k."""
    return Graph(2 * k + 1, [e for i in range(1, 2 * k, 2)
                             for e in ((0, i), (0, i + 1), (i, i + 1))])


# (graph, atom count, chi, maximum stable set size with unit weights)
CASES = {
    "friendship2000": (friendship(2000), 2000, 3, 2000),
    "path1200": (path(1200), 1199, 2, 600),
    "hole601": (hole(601), 1, 3, 300),
    "hole1001": (hole(1001), 1, 3, 500),
    "hole5000": (hole(5000), 1, 2, 2500),
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


def long_path_edges(a, b, first, length):
    """Edges of an a..b path through length new vertices from first on."""
    inner = list(range(first, first + length))
    return list(zip([a] + inner, inner + [b]))


# Two short paths and one of 1100 interior vertices: a theta between 0
# and 1, and a prism between the triangles 0, 1, 2 and 3, 4, 5.
LONG_THETA = Graph(1105, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]
                   + long_path_edges(0, 1, 5, 1100))
LONG_PRISM = Graph(1107, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                          (0, 3), (1, 6), (6, 4)]
                   + long_path_edges(2, 5, 7, 1100))


@pytest.mark.parametrize("g, kind", [(LONG_THETA, "theta"),
                                     (LONG_PRISM, "prism")],
                         ids=["theta", "prism"])
def test_path_oracles_walk_long_paths_without_recursing(g, kind):
    found = find_forbidden_induced(g, kind)
    assert found is not None and found.kind == kind
    assert verify_witness(g, found)
    assert max(map(len, found.parts)) == 1102


def test_long_theta_rechecks_in_linear_time():
    # Three paths of 3000 interior vertices between 0 and 1 (n = 9002): the
    # re-check compares one neighbour mask per vertex, not every pair.
    paths = tuple((0,) + tuple(range(2 + 3000 * i, 3002 + 3000 * i)) + (1,)
                  for i in range(3))
    g = Graph(9002, [e for p in paths for e in zip(p, p[1:])])
    theta = ForbiddenWitness("theta", tuple(dict.fromkeys(sum(paths, ()))),
                             paths)
    chord = Graph(9002, g.edges() + [(2, 3002)])
    start = time.perf_counter()
    assert verify_witness(g, theta)
    assert not verify_witness(chord, theta)
    assert time.perf_counter() - start < 0.5


# One search level per vertex, on an explicit stack: K1100's clique grows
# 1100 deep, the path's 2-coloring assigns 1500 vertices in turn, and the
# edgeless graph's stable set takes 1500 vertices one by one.
BRUTE_CASES = {
    "K1100-max-clique": (lambda: add_universal_clique(Graph(0, []), 1100),
                         "max-clique", 1100),
    "path1500-chromatic": (lambda: path(1500), "chromatic", 2),
    "isolated1500-mwss": (lambda: Graph(1500, []), "mwss", 1500),
}


@pytest.mark.parametrize("name", sorted(BRUTE_CASES))
def test_brute_solvers_do_not_recurse(name):
    build, problem, value = BRUTE_CASES[name]
    g = build()
    result = brute_solve(g, problem)
    assert result.value == value
    if problem == "max-clique":
        assert len(result.witness) == value and g.is_clique(result.witness)
    elif problem == "chromatic":
        assert is_proper_coloring(g, result.witness, value)
    else:
        assert g.is_stable(result.witness)
        assert sum(g.weight(v) for v in result.witness) == value


def test_theta_oracle_skips_branch_pairs_of_degree_two(tmp_path, capsys):
    # Every vertex of a hole has degree 2, so no pair is searched.
    f = tmp_path / "hole1100.graph"
    f.write_text(serialize_graph(hole(1100)), encoding="utf-8")
    start = time.perf_counter()
    assert main(["oracle", "theta", str(f)]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out) == {"kind": "theta",
                                                   "witness": None}


# Wide blow-ups: the count DP over the skeleton's decomposition keeps one
# color count per independent set of a bag, whatever the class sizes.
@pytest.mark.parametrize("g, chi", [
    pytest.param(blow_up(hole(5), [6] * 5), 15, id="C5x6"),
    pytest.param(blow_up(hole(7), [6] * 7), 14, id="C7x6"),
    pytest.param(add_universal_clique(blow_up(hole(9), [4] * 9), 2), 11,
                 id="C9x4+U2"),
    pytest.param(add_universal_clique(blow_up(hole(5), [10] * 5), 3), 28,
                 id="C5x10+U3")])
def test_wide_blowups_are_colored_exactly(g, chi):
    value, colors = chromatic_number(g)
    assert value == chi and is_proper_coloring(g, colors, chi)
    assert q_color_graph(g, chi - 1) is None


def long_path_decomposition():
    """1100 bags {i, i + 1} of path(1101), in a path."""
    bags = tuple((i, i + 1) for i in range(1100))
    return TreeDecomposition(bags, tuple((i, i + 1) for i in range(1099)))


def test_long_path_decomposition_goes_nice():
    nd = nice_decomposition(long_path_decomposition())
    assert nd.width == 1
    assert nd.nodes[nd.root].bag == ()
    assert nd.as_tree_decomposition().is_valid(path(1101))


def test_min_fill_refreshes_only_near_the_eliminated_vertex(monkeypatch):
    # A full rescan per elimination would take n*(n+1)/2 fill counts.
    calls = 0
    fill_count = treewidth._fill_count

    def counted(adj, v):
        nonlocal calls
        calls += 1
        return fill_count(adj, v)

    monkeypatch.setattr(treewidth, "_fill_count", counted)
    g = hole(2001)
    assert min_fill_decomposition(g).width == 2
    assert calls <= 10 * g.n


def test_min_fill_plays_the_elimination_game_once(monkeypatch):
    # The bags come from the moves that picked the order, not a replay.
    moves = 0
    eliminate = treewidth._eliminate

    def counted(adj, v):
        nonlocal moves
        moves += 1
        return eliminate(adj, v)

    monkeypatch.setattr(treewidth, "_eliminate", counted)
    g = hole(2001)
    assert min_fill_decomposition(g).width == 2
    assert moves == g.n


def subdivided_grid(side, k):
    """The side x side grid with every edge subdivided k times."""
    edges, n = [], side * side
    for r in range(side):
        for c in range(side):
            v = r * side + c
            for u in ((v + 1,) if c + 1 < side else ()) + \
                    ((v + side,) if r + 1 < side else ()):
                chain = [v, *range(n, n + k), u]
                n += k
                edges += [(min(a, b), max(a, b))
                          for a, b in zip(chain, chain[1:])]
    return Graph(n, edges)


def test_exact_width_search_does_not_recurse():
    # Triangle-free, no clique cutset, treewidth 7: min-fill exceeds 5 and
    # the exact search descends about a thousand eliminations deep.
    g = subdivided_grid(7, 12)
    assert (g.n, g.m) == (1057, 1092)
    try:
        result = skeleton_tree_decomposition(g, budget=1500)
    except SearchBudgetExceeded:
        return
    assert result == TreewidthReject(5)


def test_solvers_answer_the_subdivided_grid_by_its_decomposition():
    # The width-5 search cannot decompose this graph, and brute force is
    # exponential in its 1057 vertices; the DPs over its min-fill
    # decomposition answer in well under a second each.
    g = subdivided_grid(7, 12)
    start = time.perf_counter()
    result = mwss(g)
    chi, colors = chromatic_number(g)
    assert time.perf_counter() - start < 10
    assert result.weight == 529 and g.is_stable(result.vertices)
    assert chi == 2 and is_proper_coloring(g, colors, 2)


def test_long_hole_recognition_does_not_recurse():
    # The even-hole oracle extends one path around the whole 996-vertex
    # skeleton, more steps than the default recursion limit of 1000 frames
    # leaves room for.
    verdict = recognize(hole(996), "cap-even-hole-free")
    assert verdict.status == "rejected"
    assert verdict.witness.kind == "even-hole"
    assert sorted(verdict.witness.vertices) == list(range(996))
    # Each search stops once its ends are all seen, so a hole of thousands
    # of vertices costs one walk around it, well inside the default budget.
    verdict = recognize(hole(3001), "cap-4hole-odd-signable")
    assert verdict.accepted
    witness = find_forbidden_induced(hole(3000), "even-hole")
    assert witness.vertices == tuple(range(3000))


@pytest.mark.parametrize("g,atoms,alpha", [(path(5000), 4999, 2500),
                                           (Graph(5000, []), 5000, 5000)],
                         ids=["path5000", "isolated5000"])
def test_recognize_long_sparse_inputs(g, atoms, alpha):
    verdict = recognize(g, "cap-even-hole-free")
    assert verdict.accepted
    assert len(verdict.atoms) == atoms
    assert mwss(g).weight == alpha


@pytest.mark.parametrize("g,chi", [(path(5000), 2), (Graph(5000, []), 1)],
                         ids=["path5000", "isolated5000"])
def test_color_long_sparse_inputs(g, chi):
    value, colors = chromatic_number(g)
    assert value == chi and is_proper_coloring(g, colors, chi)


def test_long_cutset_trees_compare_hash_and_print_without_recursing():
    # The spine of path(5000)'s tree is 4998 internal nodes deep.
    first = clique_cutset_tree(path(5000)).root
    second = clique_cutset_tree(path(5000)).root
    assert first == second and hash(first) == hash(second)
    assert first != clique_cutset_tree(path(4999)).root
    assert repr(first).startswith("DecompositionNode(atom=None, cutset=(")
    verdict = recognize(path(5000), "cap-even-hole-free")
    assert repr(verdict).startswith("RecognitionVerdict(status='accepted'")


def test_long_cutset_trees_and_verdicts_pickle_and_copy():
    tree = clique_cutset_tree(path(5000))
    assert tree.root.cutset
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin == tree and twin.root == tree.root
    verdict = recognize(path(3000), "cap-even-hole-free")
    verdict.tree.root
    assert pickle.loads(pickle.dumps(verdict)) == verdict


@pytest.mark.parametrize("g", [path(5000), hole(5), path(3)],
                         ids=["path5000", "hole5", "path3"])
def test_a_bare_cutset_tree_root_pickles_and_copies(g):
    # The root of path(5000)'s tree is 4998 internal nodes deep; hole(5)'s
    # is a leaf.
    root = clique_cutset_tree(g).root
    for twin in (pickle.loads(pickle.dumps(root)), copy.deepcopy(root)):
        assert twin == root and repr(twin) == repr(root)
        assert twin.vertices == root.vertices


def five_hole_flower(k):
    """k 5-holes through vertex 0: k atoms that meet only there, so vertex
    0 lies in every atom and has degree 2k."""
    edges = []
    for i in range(1, 4 * k, 4):
        edges += [(0, i), (i, i + 1), (i + 1, i + 2), (i + 2, i + 3),
                  (i + 3, 0)]
    return Graph(4 * k + 1, edges)


def test_recognize_scales_near_linearly_on_a_flower():
    def seconds(k, runs):
        g = five_hole_flower(k)
        best = None
        for _ in range(runs):
            start = time.perf_counter()
            verdict = recognize(g, "cap-even-hole-free")
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        assert verdict.accepted and len(verdict.atoms) == k
        return best

    # Eight times the input: linear work takes 8 times as long, quadratic
    # work 64 times (a 4-hole scan over every pair at distance two took
    # over 100 times as long).
    assert seconds(2000, 2) < 30 * seconds(250, 5)


def test_detectors_pass_a_long_hole():
    g = hole(3001)
    assert detect_4hole(g) is None
    assert detect_cap_fast(g) is None


@pytest.fixture(scope="module")
def glue60():
    """61 atoms glued on clique cutsets, n = 1396, omega = 5."""
    return generate_instance(GeneratorParams(
        seed=5, ear_count=2, max_blowup=2, max_universal=1, glue_count=60))


def test_glue60_is_recognized_and_solved(glue60):
    g, provenance = glue60
    assert g.n == 1396
    assert recognize(g, "cap-even-hole-free").accepted

    result = mwss(g)
    assert g.is_stable(result.vertices)
    assert result.weight == sum(g.weight(v) for v in result.vertices)

    omega, witness = clique_number(g)
    assert omega == provenance["clique_number"] == 5
    assert len(witness) == omega and g.is_clique(witness)

    chi, colors = chromatic_number(g)
    assert omega <= chi <= ceil_three_halves(omega)
    assert is_proper_coloring(g, colors, chi)
    assert q_color_graph(g, chi - 1) is None


# sha256 over serialize_graph(g) and json.dumps(provenance, sort_keys=True).
GLUE160_SHA256 = \
    "d2d0162e17e79bf1c171021c041981981e19e4ca9b2b9f05562aa21907553165"


def test_glue160_generation_is_pinned():
    # 161 atoms, n = 3719.  Generation stays near-linear only while the
    # self-check's cap searches stay inside blocks; searches over the whole
    # graph take over ten seconds here.  No timing is asserted: pytest
    # --durations shows it.
    g, provenance = generate_instance(GeneratorParams(
        seed=5, ear_count=2, max_blowup=2, max_universal=1, glue_count=160))
    assert (g.n, g.m) == (3719, 10486)
    digest = hashlib.sha256(serialize_graph(g).encode()
                            + json.dumps(provenance, sort_keys=True).encode())
    assert digest.hexdigest() == GLUE160_SHA256
