import random
import subprocess
import sys
from pathlib import Path

import pytest

from capfree import decomposition, solvers
from capfree.construct import (TARGET_CLASSES, GeneratorParams,
                               generate_instance)
from capfree.decomposition import clique_cutset_tree, decompose
from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            gnp, hajos, hole, path)
from capfree.oracles import CertificateError, brute_solve
from capfree.recognition import recognize
from capfree.rng import Xoshiro256StarStar
from capfree.solvers import (StableSetResult, UnsupportedInstanceError,
                             ceil_three_halves, chromatic_number,
                             clique_number, combine_colorings,
                             greedy_color, is_proper_coloring, mwss,
                             q_color, q_color_graph)
from capfree.treewidth import (min_fill_decomposition, nice_decomposition,
                               skeleton_tree_decomposition)
from capfree.twins import (SkeletonReject, clique_number_via_skeleton,
                           extract_skeleton, lift_tree_decomposition)
from test_pinned_cli import REJECT_FIXTURES

G1 = blow_up(hole(5), [2] * 5)


def lifted_decomposition(atom):
    sd = extract_skeleton(atom)
    return lift_tree_decomposition(
        skeleton_tree_decomposition(sd.skeleton), sd)


def test_greedy_c5_uses_three_colors():
    colors = greedy_color(hole(5))
    assert is_proper_coloring(hole(5), colors)
    assert max(colors) == 3


def test_is_proper_coloring_checks_length_range_and_edges():
    assert is_proper_coloring(hole(5), [1, 2, 1, 2, 3], 3)
    assert not is_proper_coloring(hole(5), [1, 2, 1, 2])
    assert not is_proper_coloring(hole(5), [0, 2, 1, 2, 3])
    assert not is_proper_coloring(hole(5), [1, 2, 1, 2, 3], 2)
    assert not is_proper_coloring(hole(5), [1, 2, 1, 2, 1])


def test_greedy_complete():
    assert max(greedy_color(complete(6))) == 6


def test_greedy_blown_c5_within_bound():
    colors = greedy_color(G1)
    assert is_proper_coloring(G1, colors)
    assert max(colors) <= ceil_three_halves(4)


def test_q_color_c5():
    td = lifted_decomposition(hole(5))
    assert q_color(hole(5), td, 2) is None
    colors = q_color(hole(5), td, 3)
    assert colors is not None and is_proper_coloring(hole(5), colors, 3)


def test_non_integer_q_is_refused_before_any_work(monkeypatch):
    # At 3.0 the DP used to run and combine_colorings raised TypeError;
    # 2.5 answered None and 3.5 a coloring.
    td = min_fill_decomposition(hole(5))

    def refuse(*args, **kwargs):
        raise AssertionError("worked")

    monkeypatch.setattr(solvers, "decompose", refuse)
    monkeypatch.setattr(solvers, "nice_decomposition", refuse)
    for call in (lambda: q_color_graph(hole(5), 3.0),
                 lambda: q_color_graph(hole(5), 2.5),
                 lambda: q_color(hole(5), td, 3.5)):
        with pytest.raises(ValueError, match="integer"):
            call()
    monkeypatch.undo()
    assert q_color_graph(path(1), True) == [1]
    assert q_color_graph(path(2), True) is None
    assert q_color(path(1), min_fill_decomposition(path(1)), True) == [1]


def test_q_color_blown_c5():
    td = lifted_decomposition(G1)
    assert q_color(G1, td, 4) is None
    colors = q_color(G1, td, 5)
    assert colors is not None and is_proper_coloring(G1, colors, 5)


def _dp_case(kind, seed):
    """A graph with a valid decomposition: a G(n, p) graph (n <= 10) over
    its min-fill decomposition, or a one-atom in-class instance or a
    blown-up hole with a universal clique over its lifted decomposition."""
    if kind == "gnp":
        g = gnp(4 + seed % 7, (0.3, 0.5, 0.7)[seed % 3], 9300 + seed)
        return g, min_fill_decomposition(g)
    if kind == "instance":
        g, _ = generate_instance(GeneratorParams(
            seed=seed, ear_count=seed % 3, max_blowup=2, max_universal=1,
            base_length=5))
    else:
        rng = Xoshiro256StarStar(seed)
        k = (5, 7, 9)[seed % 3]
        g = add_universal_clique(
            blow_up(hole(k), [1 + rng.below(3) for _ in range(k)]),
            1 + rng.below(2))
    return g, lifted_decomposition(g)


@pytest.mark.parametrize("kind, seed", [
    *(("gnp", s) for s in range(15)),
    *(("instance", s) for s in range(1, 13)),
    *(("blown-hole", s) for s in range(9))])
def test_q_color_decides_brute_chi(kind, seed):
    g, td = _dp_case(kind, seed)
    assert td.is_valid(g)
    chi = brute_solve(g, "chromatic").value
    colors = q_color(g, td, chi)
    assert colors is not None and is_proper_coloring(g, colors, chi)
    if chi > 1:
        assert q_color(g, td, chi - 1) is None


# Blow-ups on which the DP keyed by color tuples took from 1.4 s to 51 s
# and up to 1.45 GB; keyed by color partitions they take milliseconds.
@pytest.mark.parametrize("g, chi", [
    pytest.param(add_universal_clique(blow_up(hole(9), [2] * 9), 3), 8,
                 id="C9x2+U3"),
    pytest.param(add_universal_clique(G1, 2), 7, id="C5x2+U2"),
    pytest.param(blow_up(hole(5), [3] * 5), 8, id="C5x3")])
def test_blowups_colored_exactly(g, chi):
    value, colors = chromatic_number(g)
    assert value == chi and is_proper_coloring(g, colors, chi)
    assert is_proper_coloring(g, q_color_graph(g, chi), chi)
    assert q_color_graph(g, chi - 1) is None


def _uneven_blowup(seed):
    """C5, C7 or C9 with classes of 1 to 4 vertices and a universal clique
    of 0 to 2, redrawn until n <= 16."""
    rng = Xoshiro256StarStar(7700 + seed)
    k = (5, 7, 9)[seed % 3]
    while True:
        sizes = [1 + rng.below(4) for _ in range(k)]
        universal = rng.below(3)
        if sum(sizes) + universal <= 16:
            return add_universal_clique(blow_up(hole(k), sizes), universal)


@pytest.mark.parametrize("seed", range(24))
def test_count_dp_on_uneven_blowups(seed):
    g = _uneven_blowup(seed)
    chi = brute_solve(g, "chromatic").value
    value, colors = chromatic_number(g)
    assert value == chi and is_proper_coloring(g, colors, chi)
    assert is_proper_coloring(g, q_color_graph(g, chi), chi)
    assert q_color_graph(g, chi - 1) is None


def test_q_color_triangle():
    from capfree.treewidth import TreeDecomposition
    td = TreeDecomposition(((0, 1, 2),), ())
    colors = q_color(complete(3), td, 3)
    assert colors is not None and sorted(colors) == [1, 2, 3]


def test_q_color_validates_input():
    from capfree.treewidth import TreeDecomposition
    with pytest.raises(ValueError):
        q_color(complete(3), TreeDecomposition(((0, 1, 2),), ()), 0)
    with pytest.raises(ValueError):
        q_color(complete(3), TreeDecomposition(((0, 1),), ()), 3)


def test_combine_p4_with_two_colors():
    tree = clique_cutset_tree(path(4))
    colorings = [{a: 1, b: 2} for a, b in
                 (leaf.vertices for leaf in tree.leaves())]
    colors = combine_colorings(tree, colorings, 2)
    assert is_proper_coloring(path(4), colors, 2)


def test_combine_two_triangles():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    tree = clique_cutset_tree(g)
    colorings = []
    for leaf in tree.leaves():
        colorings.append({v: i + 1 for i, v in enumerate(leaf.vertices)})
    colors = combine_colorings(tree, colorings, 3)
    assert is_proper_coloring(g, colors, 3)


def test_combine_colorings_checks_its_input():
    tree = clique_cutset_tree(path(3))
    good = [{a: 1, b: 2} for a, b in tree.atoms()]
    with pytest.raises(ValueError, match="one coloring per"):
        combine_colorings(tree, good[:1], 2)
    with pytest.raises(ValueError, match="does not match its atom"):
        combine_colorings(tree, [good[0], {0: 1}], 2)
    with pytest.raises(ValueError, match="exceeds 2 colors"):
        combine_colorings(tree, [good[0], {0: 3, 1: 1}], 2)


def test_combine_single_atom_is_identity():
    tree = clique_cutset_tree(hole(5))
    coloring = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}
    colors = combine_colorings(tree, [coloring], 3)
    assert colors == [1, 2, 1, 2, 3]


def test_coloring_the_empty_graph():
    assert chromatic_number(Graph(0, [])) == (0, [])
    assert q_color_graph(Graph(0, []), 1) == []


def test_chromatic_examples():
    assert chromatic_number(hole(5))[0] == 3
    assert chromatic_number(G1)[0] == 5
    assert chromatic_number(hajos())[0] == 4 \
        == brute_solve(hajos(), "chromatic").value
    assert chromatic_number(complete(7))[0] == 7
    assert chromatic_number(path(1))[0] == 1


def test_chromatic_returns_proper_coloring():
    chi, colors = chromatic_number(G1)
    assert is_proper_coloring(G1, colors, chi)


def test_q_color_graph_route():
    assert q_color_graph(hole(5), 2) is None
    colors = q_color_graph(hole(5), 3)
    assert is_proper_coloring(hole(5), colors, 3)
    assert q_color_graph(path(4), 2) is not None
    assert q_color_graph(G1, 4) is None
    assert is_proper_coloring(G1, q_color_graph(G1, 5), 5)


def test_clique_number_structured():
    value, witness = clique_number(G1)
    assert value == 4 and G1.is_clique(witness) and len(witness) == 4
    wheel = add_universal_clique(hole(5), 1)
    assert clique_number(wheel)[0] == 3
    assert clique_number(complete(9))[0] == 9


# The wheel's hub is its universal clique: it stands alone against the
# skeleton's set and replaces it only when strictly heavier.  A class
# counts its heaviest member.
WHEEL = add_universal_clique(hole(5), 1)


@pytest.mark.parametrize("g, w, vertices, weight", [
    (WHEEL, [1] * 6, (2, 4), 2),
    (WHEEL, [1] * 5 + [2], (2, 4), 2),
    (WHEEL, [1] * 5 + [3], (5,), 3),
    (blow_up(hole(5), [2, 1, 1, 1, 1]), [1, 5, 1, 1, 1, 1], (1, 4), 6)],
    ids=["wheel", "wheel-tie", "wheel-hub", "class-maximum"])
def test_mwss_universal_clique_and_class_maxima(g, w, vertices, weight):
    assert mwss(g, w) == StableSetResult(vertices, weight)
    assert brute_solve(g.with_weights(w), "mwss").value == weight


def test_mwss_paths():
    assert mwss(path(3), [1, 3, 1]).weight == 3
    assert mwss(path(3), [2, 3, 2]) \
        == mwss(path(3).with_weights([2, 3, 2]))
    assert mwss(path(3), [2, 3, 2]).vertices == (0, 2)


def test_mwss_checks_the_weights_length():
    with pytest.raises(ValueError, match="weights length"):
        mwss(path(3), [1, 2])


def test_mwss_rejects_non_integer_weights_before_any_work(monkeypatch):
    # Float weights used to reach the DP, which failed its re-check here.
    g, _ = generate_instance(GeneratorParams(seed=3, ear_count=2,
                                             glue_count=4, max_blowup=2))
    rng = random.Random(1)
    with pytest.raises(ValueError, match="integers"):
        mwss(g, [rng.random() for _ in g.vertices()])

    def refuse(*args, **kwargs):
        raise AssertionError("decomposed")

    monkeypatch.setattr(solvers, "decompose", refuse)
    for weights in ([1, 2, 3.0], [1, 2, "3"], [1, 2, None]):
        with pytest.raises(ValueError, match="integers"):
            mwss(path(3), weights)
    monkeypatch.undo()
    assert mwss(path(3), [True, 1, True]) == StableSetResult((0, 2), 2)


def test_mwss_blown_c5_unit():
    result = mwss(G1)
    assert result.weight == 2
    assert G1.is_stable(result.vertices)


def test_mwss_handles_zero_weights():
    result = mwss(hole(5), [0, 0, 0, 0, 0])
    assert result.weight == 0


@pytest.mark.parametrize("seed", range(30))
def test_agreement_with_brute_on_random(seed):
    g = gnp(5 + seed % 9, (0.25, 0.5)[seed % 2], 7100 + seed)
    assert chromatic_number(g)[0] == brute_solve(g, "chromatic").value
    rng = Xoshiro256StarStar(seed)
    w = [rng.below(50) for _ in range(g.n)]
    assert mwss(g, w).weight \
        == brute_solve(g.with_weights(w), "mwss").value


# Single glues with weights below 100, then glues of 3 and 4 on a 5-hole
# base with weights 0..9 (ties): their cutsets delete whole classes and
# whole universal cliques of atoms, so queries force F' vertices out.
@pytest.mark.parametrize("seed, glue, base, top", [
    *(pytest.param(s, 1, None, 100, id=str(s))
      for s in (2, 5, 10, 15, 20, 25)),
    *(pytest.param(s, glue, 5, 10, id=f"{s}-glue{glue}")
      for s, glue in ((11, 3), (19, 3), (30, 3), (35, 3), (19, 4), (32, 4)))])
def test_structured_instances_agree_with_brute(seed, glue, base, top):
    params = GeneratorParams(seed=seed, ear_count=0, max_blowup=2,
                             max_universal=1, glue_count=glue,
                             base_length=base)
    g, prov = generate_instance(params)
    assert g.n <= 30
    assert chromatic_number(g)[0] \
        == brute_solve(g, "chromatic").value
    rng = Xoshiro256StarStar(seed)
    w = [rng.below(top) for _ in range(g.n)]
    result = mwss(g, w)
    assert g.is_stable(result.vertices)
    assert result.weight == sum(w[v] for v in result.vertices) \
        == brute_solve(g.with_weights(w), "mwss").value


GLUED3 = generate_instance(GeneratorParams(
    seed=11, max_blowup=2, max_universal=1, glue_count=3,
    base_length=5))[0]


def _count_calls(monkeypatch, call, dp):
    """Run call, counting min_fill_nice calls and DP passes; also
    returns the number of structured atoms of GLUED3."""
    structured = sum(atom.nice is not None for atom in decompose(GLUED3)[1])
    calls = {"nice": 0, "dp": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(decomposition, "min_fill_nice",
                        counted("nice", decomposition.min_fill_nice))
    monkeypatch.setattr(solvers, dp, counted("dp", getattr(solvers, dp)))
    call()
    assert structured >= 2
    return structured, calls


def test_mwss_builds_one_nice_decomposition_per_structured_atom(
        monkeypatch):
    structured, calls = _count_calls(monkeypatch, lambda: mwss(GLUED3),
                                     "_stable_dp")
    assert calls["nice"] == structured < calls["dp"]


@pytest.mark.parametrize("call", [
    lambda: chromatic_number(GLUED3),
    lambda: q_color_graph(GLUED3, 5)],      # chi(GLUED3) = 5
    ids=["chromatic", "q_color_graph"])
def test_coloring_builds_one_nice_decomposition_per_structured_atom(
        monkeypatch, call):
    structured, calls = _count_calls(monkeypatch, call, "_multicolor_dp")
    assert calls["nice"] == calls["dp"] == structured


def _improper(graph, nd, allowed, weights, budget=None):
    """Every vertex taken: not a stable set."""
    return 0, list(graph.vertices())


def _all_color_one(graph, nd, demand, cap, budget=None):
    """Color 1 for every vertex, as often as it needs colors."""
    return 1, [[1] * d for d in demand]


def _overlapping_lists(graph, nd, demand, cap, budget=None):
    """Colors 1..d for every vertex: adjacent vertices' lists overlap."""
    return max(demand), [list(range(1, d + 1)) for d in demand]


@pytest.mark.parametrize("call, dp, fake", [
    (lambda: q_color_graph(G1, 5), "_multicolor_dp", _all_color_one),
    (lambda: chromatic_number(G1), "_multicolor_dp", _overlapping_lists),
    (lambda: q_color(G1, lifted_decomposition(G1), 5), "_multicolor_dp",
     _all_color_one),
    (lambda: mwss(G1), "_stable_dp", _improper)],
    ids=["q_color_graph", "chromatic", "q_color", "mwss"])
def test_improper_dp_labelling_is_caught(monkeypatch, call, dp, fake):
    monkeypatch.setattr(solvers, dp, fake)
    with pytest.raises(CertificateError):
        call()


def test_improper_dp_labelling_is_caught_under_python_O():
    script = (
        "from capfree import solvers, blow_up, hole\n"
        "solvers._multicolor_dp = lambda g, nd, demand, cap, budget: (\n"
        "    1, [[1] * d for d in demand])\n"
        "solvers._stable_dp = lambda g, nd, allowed, w, budget: (\n"
        "    0, list(g.vertices()))\n"
        "g = blow_up(hole(5), [2] * 5)\n"
        "for call in (lambda: solvers.q_color_graph(g, 5),\n"
        "             lambda: solvers.chromatic_number(g),\n"
        "             lambda: solvers.mwss(g)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n")
    src = str(Path(solvers.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.split() == ["CertificateError"] * 3


def test_min_degree_bound_on_generated():
    for seed in range(1, 25):
        params = GeneratorParams(seed=seed, ear_count=seed % 3,
                                 max_blowup=1 + seed % 3)
        g, prov = generate_instance(params)
        bound = ceil_three_halves(prov["clique_number"]) - 1
        assert min(g.degree(v) for v in g.vertices()) <= bound


def test_unsupported_raises_beyond_guard():
    g = gnp(30, 0.5, 1)        # far outside the class
    with pytest.raises(UnsupportedInstanceError):
        chromatic_number(g, budget=10)
    with pytest.raises(UnsupportedInstanceError):
        mwss(g, budget=10)


def test_brute_force_answers_out_of_class_atoms_within_the_budget():
    # One 40-vertex atom whose twin quotient has a triangle: its brute
    # cliques and colorings take 179 and 809 nodes, the latter once the
    # coloring DP has run out.  Its stable sets need 1.87 M brute-force
    # nodes, but the stable-set DP over its width-13 decomposition answers
    # at the default budget.
    g = gnp(40, 0.15, 5)
    assert clique_number(g)[0] == brute_solve(g, "max-clique").value
    assert chromatic_number(g)[0] == brute_solve(g, "chromatic").value
    assert mwss(g).weight == 15 \
        == brute_solve(g, "mwss", budget=2_000_000).value


def test_negative_weights_internal():
    # Negative weights arise from reweighting; the API accepts them too.
    result = mwss(path(3), [-5, 2, -5])
    assert result.weight == 2 and result.vertices == (1,)
    assert mwss(path(2), [-1, -1]).weight == 0


def grotzsch():
    """Triangle-free, cutset-free, chromatic number 4: its skeleton
    structure extracts fine but chi exceeds ceil(3/2 omega), so the
    q-search range exhausts and proves it outside the class."""
    edges = hole(5).edges()
    for i in range(5):
        for j in ((i - 1) % 5, (i + 1) % 5):
            edges.append((j, 5 + i))
    edges += [(5 + i, 10) for i in range(5)]
    return Graph(11, [(min(a, b), max(a, b)) for a, b in edges])


def test_chromatic_range_exhaustion_falls_back():
    g = grotzsch()
    (atom,) = decompose(g)[1]
    assert atom.nice is not None
    omega = clique_number_via_skeleton(atom.extracted)
    assert omega == 2
    chi, colors = chromatic_number(g)
    assert chi == 4 == brute_solve(g, "chromatic").value
    assert chi > ceil_three_halves(omega)
    assert is_proper_coloring(g, colors, chi)


def _out_of_class_graphs():
    """The graphs of at most 12 vertices that the tests draw and that
    neither class holds: the prism, house and K2,3 fixtures of the pinned
    CLI test and the gnp draws of test_agreement_with_brute_on_random."""
    graphs = {name: REJECT_FIXTURES[name]()
              for name in ("prism", "house", "K23")}
    for seed in range(30):
        graphs[f"gnp{seed}"] = gnp(5 + seed % 9, (0.25, 0.5)[seed % 2],
                                   7100 + seed)
    return [(name, g) for name, g in graphs.items() if g.n <= 12
            and not any(recognize(g, cls).accepted for cls in TARGET_CLASSES)]


def test_out_of_class_graphs_agree_with_brute():
    # Every atom runs the DPs over its twin quotient, which may have a
    # triangle; the answers must still be exact.
    triangle_quotients = 0
    for name, g in _out_of_class_graphs():
        triangle_quotients += sum(isinstance(atom.extracted, SkeletonReject)
                                  for atom in decompose(g)[1])
        rng = Xoshiro256StarStar(len(name))
        w = [rng.below(50) for _ in range(g.n)]
        assert mwss(g, w).weight \
            == brute_solve(g.with_weights(w), "mwss").value, name
        chi, colors = chromatic_number(g)
        assert chi == brute_solve(g, "chromatic").value, name
        assert is_proper_coloring(g, colors, chi)
        assert q_color_graph(g, chi) is not None, name
        assert q_color_graph(g, chi - 1) is None, name
    assert triangle_quotients >= 10


def test_mwss_structured_path_is_exact_outside_class():
    # The stable-set DP only needs the blow-up structure, not membership.
    g = grotzsch()
    assert mwss(g).weight == 5 == brute_solve(g, "mwss").value


# The 6x6 grid is its own triangle-free skeleton of treewidth 6.
GRID6 = Graph(36, [(r * 6 + c, r * 6 + c + 1)
                   for r in range(6) for c in range(5)]
              + [(r * 6 + c, (r + 1) * 6 + c)
                 for r in range(5) for c in range(6)])


def test_clique_number_reads_only_the_skeleton():
    # The omega formula needs no tree decomposition and no brute force.
    assert clique_number(GRID6) == (2, (0, 1))


# An atom the solvers cannot answer within the budget names each search
# that ran out: the stable-set DP, which has no fallback; the coloring DP,
# then the brute-force coloring; or, for the clique number of an atom whose
# twin quotient has a triangle, the brute-force clique search.
DP_OUT = "atom is undecided: the {} DP ran out of its budget of {} nodes"
BRUTE_OUT = "; the brute-force {} search ran out of its budget of {} nodes"


@pytest.mark.parametrize("call, message", [
    (lambda: mwss(GRID6, budget=50), DP_OUT.format("stable-set", 50)),
    (lambda: chromatic_number(GRID6, budget=50),
     DP_OUT.format("coloring", 50) + BRUTE_OUT.format("chromatic", 50)),
    (lambda: mwss(Graph(14, [(i, 7 + j) for i in range(7)
                             for j in range(7)]), budget=10),
     DP_OUT.format("stable-set", 10)),
    (lambda: clique_number(gnp(30, 0.5, 1), budget=10),
     "atom is outside the class: its would-be skeleton has a triangle"
     + BRUTE_OUT.format("max-clique", 10)),
    (lambda: chromatic_number(grotzsch(), budget=5),
     DP_OUT.format("coloring", 5) + BRUTE_OUT.format("chromatic", 5))],
    ids=["grid6-mwss", "grid6-chromatic", "K77", "gnp", "grotzsch"])
def test_unsupported_names_its_reason(call, message):
    with pytest.raises(UnsupportedInstanceError) as info:
        call()
    assert str(info.value) == message


def test_chromatic_number_of_a_dense_atom_stays_small():
    # The coloring DP over these atoms' twin quotients (width 20, and width
    # 7 with demands 6) outgrows the budget at the greedy cap.  It must stop
    # there, inside the introduce step that crosses it, rather than build
    # its tables (one such step on the blow-up makes 1.66 M entries and
    # 580 MB when unchecked), and brute force then answers.  Their own
    # process reports its peak resident size in bytes.
    script = (
        "import resource, sys\n"
        "from capfree import blow_up, brute_solve, chromatic_number, gnp\n"
        "from capfree.solvers import UnsupportedInstanceError\n"
        "for g in (gnp(30, 0.5, 1), blow_up(gnp(12, 0.4, 2), [6] * 12)):\n"
        "    try:\n"
        "        chi = chromatic_number(g)[0]\n"
        "        print(chi == brute_solve(g, 'chromatic').value)\n"
        "    except UnsupportedInstanceError as exc:\n"
        "        print(exc)\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak * (1 if sys.platform == 'darwin' else 1024))\n")
    src = str(Path(solvers.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    *answers, peak = done.stdout.splitlines()
    assert len(answers) == 2
    for answer in answers:
        assert answer == "True" \
            or "the coloring DP ran out of its budget" in answer
    assert int(peak) < 200 * 2 ** 20


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extremal_family_clique_and_stability(k):
    # Blown 5-holes with classes of size 2k: omega = 4k and alpha = 2 for
    # every k; chi = 5k is asserted up to k = 2 (at k = 3 the lifted
    # coloring DP takes tens of seconds even keyed by color partitions).
    gk = blow_up(hole(5), [2 * k] * 5)
    assert gk.n == 10 * k
    assert clique_number(gk)[0] == 4 * k
    assert mwss(gk).weight == 2
    if k <= 2:
        assert chromatic_number(gk)[0] == 5 * k


# Test-only copies of the two DPs as they were before they shared one
# driver: each has its own walk over the nodes and its own traceback.  The
# shared driver must give equal values, vertex lists and color lists.

def _separate_stable_dp(graph, nd, allowed, weights):
    tables = [None] * len(nd.nodes)
    choice = {}
    for idx, node in enumerate(nd.nodes):
        kids = node.children
        if node.kind == "leaf":
            table = {0: 0}
        elif node.kind == "introduce":
            v = node.vertex
            bit, nbrs = 1 << v, graph.mask(v)
            table = {}
            for key, value in tables[kids[0]].items():
                table[key] = value
                if allowed & bit and not key & nbrs:
                    table[key | bit] = value
        elif node.kind == "forget":
            bit, w = 1 << node.vertex, weights[node.vertex]
            table = {}
            picked = choice[idx] = {}
            for key, value in tables[kids[0]].items():
                if key & bit:
                    value += w
                short = key & ~bit
                if short not in table or value > table[short]:
                    table[short] = value
                    picked[short] = key
        else:
            right = tables[kids[1]]
            table = {key: value + right[key]
                     for key, value in tables[kids[0]].items()}
        for kid in kids:
            tables[kid] = None
        tables[idx] = table
    taken = []
    stack = [(nd.root, 0)]
    while stack:
        idx, key = stack.pop()
        node = nd.nodes[idx]
        if node.kind == "introduce":
            stack.append((node.children[0], key & ~(1 << node.vertex)))
        elif node.kind == "forget":
            key = choice[idx][key]
            if key >> node.vertex & 1:
                taken.append(node.vertex)
            stack.append((node.children[0], key))
        elif node.kind == "join":
            stack.extend((kid, key) for kid in node.children)
    return tables[nd.root][0], taken


def _separate_without(key, bit):
    return tuple(sorted([e & ~bit for e in key if e != bit]))


def _separate_multicolor_dp(graph, nd, demand, cap):
    tables = [None] * len(nd.nodes)
    choice = {}
    for idx, node in enumerate(nd.nodes):
        kids = node.children
        if node.kind == "leaf":
            table = {(): 0}
        elif node.kind == "introduce":
            v = node.vertex
            bit, nbrs, d = 1 << v, graph.mask(v), demand[v]
            table = {}
            for key, value in tables[kids[0]].items():
                fixed = []
                groups = []
                for e in key:
                    if e & nbrs:
                        fixed.append(e)
                    elif groups and groups[-1][0] == e:
                        groups[-1][1] += 1
                    else:
                        groups.append([e, 1])
                options = [(fixed, 0)]
                for e, m in groups:
                    options = [(entries + [e | bit] * c + [e] * (m - c),
                                j + c)
                               for entries, j in options
                               for c in range(min(m, d - j) + 1)]
                for entries, j in options:
                    size = len(key) + d - j
                    if size <= cap:
                        table[tuple(sorted(entries + [bit] * (d - j)))] = \
                            max(value, size)
        elif node.kind == "forget":
            bit = 1 << node.vertex
            table = {}
            picked = choice[idx] = {}
            for key, value in tables[kids[0]].items():
                short = _separate_without(key, bit)
                if short not in table or value < table[short]:
                    table[short] = value
                    picked[short] = key
        else:
            right = tables[kids[1]]
            table = {key: max(value, right[key])
                     for key, value in tables[kids[0]].items()
                     if key in right}
        for kid in kids:
            tables[kid] = None
        if not table:
            return None
        tables[idx] = table
    total = tables[nd.root][()]
    colors = [[] for _ in range(graph.n)]
    stack = [(nd.root, ())]
    while stack:
        idx, key = stack.pop()
        node = nd.nodes[idx]
        if node.kind == "introduce":
            stack.append((node.children[0],
                          _separate_without(key, 1 << node.vertex)))
        elif node.kind == "forget":
            key = choice[idx][key]
            v = node.vertex
            bit = 1 << v
            holders = {}
            for u in node.bag:
                for c in colors[u]:
                    holders[c] = holders.get(c, 0) | 1 << u
            held_by = {}
            for c in sorted(holders, reverse=True):
                held_by.setdefault(holders[c], []).append(c)
            held_by[0] = [c for c in range(total, 0, -1) if c not in holders]
            colors[v] = sorted(held_by[e ^ bit].pop()
                               for e in key if e & bit)
            stack.append((node.children[0], key))
        elif node.kind == "join":
            stack.extend((kid, key) for kid in node.children)
    return total, colors


def _random_triangle_free(rng):
    n = rng.below(15)
    p = 0.2 + rng.unit() * 0.4
    adj = [set() for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.unit() < p and not adj[u] & adj[v]:
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
    return Graph(n, edges)


def _dp_inputs():
    """Nice forms of min-fill decompositions of 240 random triangle-free
    graphs, and the skeletons of generated instances with their atoms'
    nice forms."""
    rng = Xoshiro256StarStar(1616)
    for _ in range(240):
        g = _random_triangle_free(rng)
        yield g, nice_decomposition(min_fill_decomposition(g))
    for seed in range(1, 31):
        g, _ = generate_instance(GeneratorParams(
            seed=seed, ear_count=seed % 4, max_blowup=1 + seed % 3,
            max_universal=seed % 3, glue_count=seed % 5,
            target_class=("cap-even-hole-free",
                          "cap-4hole-odd-signable")[seed % 2]))
        for atom in decompose(g)[1]:
            if atom.nice is not None:
                yield atom.extracted.skeleton, atom.nice


def test_shared_dp_driver_matches_the_separate_dps():
    rng = Xoshiro256StarStar(2016)
    inputs = stable_runs = color_runs = refusals = 0
    for g, nd in _dp_inputs():
        inputs += 1
        for _ in range(2):
            allowed = sum(1 << v for v in g.vertices() if rng.unit() < 0.8)
            weights = [rng.below(15) - 5 for _ in g.vertices()]
            assert (solvers._stable_dp(g, nd, allowed, weights)
                    == _separate_stable_dp(g, nd, allowed, weights))
            stable_runs += 1
        demand = [1 + rng.below(3) for _ in g.vertices()]
        chi = 0
        while _separate_multicolor_dp(g, nd, demand, chi) is None:
            chi += 1
        for cap in range(chi - 2, chi + 2):
            expected = _separate_multicolor_dp(g, nd, demand, cap)
            assert solvers._multicolor_dp(g, nd, demand, cap) == expected
            color_runs += 1
            refusals += expected is None
    assert inputs >= 300
    assert refusals and color_runs - refusals and stable_runs >= 600
