from collections import deque

import pytest

from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            cube, gnp, hajos, hole, induced_subgraph, path)
from capfree.oracles import (ForbiddenWitness, find_forbidden_induced,
                             verify_witness)
from capfree.recognition import (detect_4hole, detect_cap_fast, recognize)
from capfree.twins import reconstruct_atom

HOUSE = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1)])
G1 = blow_up(hole(5), [2] * 5)


def test_cap_found_in_house():
    w = detect_cap_fast(HOUSE)
    assert w is not None and w.kind == "cap"
    assert verify_witness(HOUSE, w)
    assert len(w.parts[0]) == 4        # hole C4, apex the roof


def test_no_cap_without_triangles():
    assert detect_cap_fast(hole(6)) is None


def test_no_cap_in_blown_c5():
    assert detect_cap_fast(G1) is None


@pytest.mark.parametrize("seed", range(60))
def test_cap_detector_matches_naive(seed):
    g = gnp(6 + seed % 7, (0.2, 0.4, 0.6)[seed % 3], 2024 + seed)
    fast = detect_cap_fast(g)
    naive = find_forbidden_induced(g, "cap")
    assert (fast is None) == (naive is None)
    if fast is not None:
        assert verify_witness(g, fast)


@pytest.mark.parametrize("seed", range(60))
def test_4hole_detector_matches_naive(seed):
    g = gnp(6 + seed % 7, (0.2, 0.4, 0.6)[seed % 3], 4048 + seed)
    fast = detect_4hole(g)
    naive = find_forbidden_induced(g, "4-hole")
    assert (fast is None) == (naive is None)
    if fast is not None:
        assert verify_witness(g, fast)


def _canonical(cyc):
    i = cyc.index(min(cyc))
    cyc = cyc[i:] + cyc[:i]
    return cyc[:1] + cyc[:0:-1] if cyc[1] > cyc[-1] else cyc


def _pair_scan_4hole(g):
    """Reference 4-hole test: every nonadjacent pair u < v, then every pair
    x < y of their common neighbors, in ascending order."""
    for u in g.vertices():
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = [w for w in g.adj[u] if g.has_edge(v, w)]
            for i, x in enumerate(common):
                for y in common[i + 1:]:
                    if not g.has_edge(x, y):
                        cyc = _canonical((u, x, v, y))
                        return ForbiddenWitness("4-hole", cyc, (cyc,))
    return None


def _bfs_scan_cap(g):
    """Reference cap test: one dict-and-deque breadth-first search per edge
    uv and common neighbor w, each building its shortest path."""
    for u, v in g.edges():
        common = g.mask(u) & g.mask(v)
        for w in (x for x in g.vertices() if common >> x & 1):
            removed = (g.mask(w) | common) & ~(1 << u) & ~(1 << v)
            parent, queue = {u: -1}, deque([u])
            while queue and v not in parent:
                x = queue.popleft()
                for y in g.adj[x]:
                    if (removed >> y & 1 or (x, y) == (u, v)
                            or y in parent):
                        continue
                    parent[y] = x
                    queue.append(y)
            if v not in parent:
                continue
            walk = [v]
            while parent[walk[-1]] != -1:
                walk.append(parent[walk[-1]])
            cyc = _canonical(tuple(walk[::-1]))
            return ForbiddenWitness("cap", cyc + (w,), (cyc, (w,)))
    return None


PINNED = [HOUSE, hole(4), cube(), G1] + [
    gnp(6 + seed % 25, (0.1, 0.2, 0.3, 0.45, 0.6)[seed % 5], 9090 + seed)
    for seed in range(120)]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_detectors_return_the_reference_witnesses(index):
    g = PINNED[index]
    assert detect_4hole(g) == _pair_scan_4hole(g)
    assert detect_cap_fast(g) == _bfs_scan_cap(g)


def test_detect_4hole():
    assert detect_4hole(hole(4)) is not None
    assert detect_4hole(cube()) is not None
    for chordal in (complete(5), path(6),
                    add_universal_clique(complete(2), 2)):
        assert detect_4hole(chordal) is None


def test_accept_blown_c5_both_classes():
    for cls in ("cap-even-hole-free", "cap-4hole-odd-signable"):
        verdict = recognize(G1, cls)
        assert verdict.accepted
        assert len(verdict.atoms) == 1
        report = verdict.atoms[0]
        assert not report.complete
        assert report.skeleton.skeleton == hole(5)


def test_reject_even_wheel_via_4hole():
    even_wheel = add_universal_clique(hole(4), 1)
    verdict = recognize(even_wheel, "cap-4hole-odd-signable")
    assert verdict.status == "rejected"
    assert verdict.witness.kind == "4-hole"
    assert verify_witness(even_wheel, verdict.witness)


def test_reject_c6_plus_universal_via_skeleton_oracle():
    g = add_universal_clique(hole(6), 1)
    odd = recognize(g, "cap-4hole-odd-signable")
    assert odd.status == "rejected" and odd.witness.kind == "even-wheel"
    assert odd.witness.parts[1] == (6,)   # the universal hub
    assert verify_witness(g, odd.witness)
    ehf = recognize(g, "cap-even-hole-free")
    assert ehf.status == "rejected" and ehf.witness.kind == "even-hole"
    assert verify_witness(g, ehf.witness)


def test_reject_skeleton_without_universal():
    # Theta skeleton blown up: atom has U = empty, fails the signing oracle.
    theta = Graph(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                      (0, 5), (5, 6), (6, 1)])
    assert detect_4hole(theta) is None
    g = blow_up(theta, [2] + [1] * 6)
    verdict = recognize(g, "cap-4hole-odd-signable")
    assert verdict.status == "rejected"
    assert verdict.witness.kind in ("even-wheel", "theta", "prism")
    assert verify_witness(g, verdict.witness)


def test_accepts_fixtures():
    for g in (hajos(), hole(5), hole(7), complete(6), path(5),
              add_universal_clique(hole(5), 2)):
        assert recognize(g, "cap-even-hole-free").accepted


def test_odd_signable_class_is_larger():
    # C6 contains an even hole but is odd-signable.
    assert recognize(hole(6), "cap-4hole-odd-signable").accepted
    assert recognize(hole(6), "cap-even-hole-free").status == "rejected"


def test_undecided_when_skeleton_exceeds_guard():
    verdict = recognize(hole(30), "cap-even-hole-free", oracle_guard=20)
    assert verdict.status == "undecided"
    assert "30" in verdict.detail


def test_accept_certificate_reconstructs_input():
    params_graphs = [
        G1,
        add_universal_clique(blow_up(hole(7), [2, 1, 1, 2, 1, 1, 1]), 1),
        hajos(),
    ]
    for g in params_graphs:
        verdict = recognize(g, "cap-even-hole-free")
        assert verdict.accepted
        edge_union = set()
        for report in verdict.atoms:
            atom, back = induced_subgraph(g, report.vertices)
            if not report.complete:
                assert reconstruct_atom(report.skeleton) == atom
            edge_union |= {(back[u], back[v]) for u, v in atom.edges()}
        assert edge_union == set(g.edges())


def test_reject_glued_graph_with_planted_cap():
    # A triangle glued onto a hole edge is exactly the smallest cap.
    g = Graph(6, hole(5).edges() + [(5, 0), (5, 1)])
    verdict = recognize(g, "cap-even-hole-free")
    assert verdict.status == "rejected"
    assert verdict.witness.kind == "cap"


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        recognize(hole(5), "meyniel")


@pytest.mark.parametrize("seed", range(40))
def test_pipeline_matches_whole_graph_oracles(seed):
    """End to end: the decomposition pipeline's verdict equals the direct
    whole-graph oracle truth on arbitrary random graphs."""
    from capfree.oracles import odd_signable_signing
    g = gnp(5 + seed % 7, (0.2, 0.35, 0.5, 0.65)[seed % 4], 660000 + seed)
    has_cap = find_forbidden_induced(g, "cap") is not None
    has_4hole = find_forbidden_induced(g, "4-hole") is not None
    has_even_hole = find_forbidden_induced(g, "even-hole") is not None
    signable = odd_signable_signing(g) is not None
    ehf = recognize(g, "cap-even-hole-free")
    osg = recognize(g, "cap-4hole-odd-signable")
    assert ehf.accepted == (not has_cap and not has_even_hole)
    assert osg.accepted == (not has_cap and not has_4hole and signable)
    if ehf.accepted:
        assert osg.accepted, "the even-hole-free class is contained in the other"


@pytest.mark.parametrize("seed", [3, 8, 21, 34])
def test_planted_structures_are_rejected(seed):
    from capfree.construct import GeneratorParams, generate_instance
    base, prov = generate_instance(
        GeneratorParams(seed=seed, ear_count=1, max_blowup=2))
    info = prov["atoms"][0]
    to_global = prov["atom_vertex_maps"][0]
    # Representatives of two adjacent base-hole classes: a hole of the
    # instance runs through this edge, so an apex over it is a cap.
    u = to_global[info["classes"][info["base_hole"][0]][0]]
    v = to_global[info["classes"][info["base_hole"][1]][0]]
    assert base.has_edge(u, v)
    planted_cap = Graph(base.n + 1,
                        base.edges() + [(u, base.n), (v, base.n)])
    verdict = recognize(planted_cap, "cap-even-hole-free")
    assert verdict.status == "rejected"
    assert verdict.witness.kind == "cap"
    assert verify_witness(planted_cap, verdict.witness)
    # Plant a 4-hole: two fresh vertices over a nonadjacent pair.
    a, b = next((a, b) for a in base.vertices()
                for b in range(a + 1, base.n) if not base.has_edge(a, b))
    x, y = base.n, base.n + 1
    planted_4hole = Graph(base.n + 2,
                          base.edges() + [(a, x), (x, b), (a, y), (y, b)])
    verdict = recognize(planted_4hole, "cap-even-hole-free")
    assert verdict.status == "rejected"
    assert verify_witness(planted_4hole, verdict.witness)


@pytest.mark.parametrize("glue", [0, 3], ids=["G1", "glued"])
def test_recognize_and_clique_number_build_no_tree_decomposition(
        monkeypatch, glue):
    from capfree import decomposition
    from capfree.construct import GeneratorParams, generate_instance
    from capfree.solvers import clique_number, mwss
    g = G1 if not glue else generate_instance(GeneratorParams(
        seed=11, ear_count=1, max_blowup=2, max_universal=1,
        glue_count=glue))[0]
    expected = [recognize(g, cls) for cls in ("cap-even-hole-free",
                                              "cap-4hole-odd-signable")]
    omega = clique_number(g)

    def refuse(*args, **kwargs):
        raise AssertionError("skeleton tree decomposition built")

    monkeypatch.setattr(decomposition, "skeleton_tree_decomposition", refuse)
    verdicts = [recognize(g, cls) for cls in ("cap-even-hole-free",
                                              "cap-4hole-odd-signable")]
    assert verdicts == expected and all(v.accepted for v in verdicts)
    assert len(verdicts[0].atoms) == len(verdicts[0].tree.atoms()) > glue
    assert clique_number(g) == omega
    with pytest.raises(AssertionError, match="tree decomposition built"):
        mwss(g)
