import hashlib
import random
from collections import deque
from functools import lru_cache

import pytest

from capfree.construct import GeneratorParams, generate_instance
from capfree.decomposition import decompose
from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            cube, gnp, hajos, hole, induced_subgraph, path)
from capfree.oracles import (CertificateError, ForbiddenWitness,
                             find_forbidden_induced, verify_witness)
from capfree.recognition import (detect_4hole, detect_cap_fast,
                                 detect_cap_in_atoms, recognize)
from capfree.twins import SkeletonReject, reconstruct_atom

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


def test_a_skeleton_without_its_witness_is_an_internal_failure(
        monkeypatch):
    # Searched in the triangle-free skeleton, a prism can never be found;
    # a missing witness raises CertificateError, also under python -O.
    from capfree import recognition
    asked = []

    def nothing(g, kinds, *, budget):
        asked.append(tuple(kinds))
        return None

    monkeypatch.setattr(recognition, "find_any_forbidden", nothing)
    theta = Graph(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                      (0, 5), (5, 6), (6, 1)])
    with pytest.raises(CertificateError):
        recognize(theta, "cap-4hole-odd-signable")
    assert asked == [("even-wheel", "theta")]


@pytest.mark.parametrize("ears", [0, 8, 16])
def test_large_skeletons_are_decided_at_the_default_budget(ears):
    # hole(25) and the 8- and 16-ear skeletons (n = 65 and 117) need 47,
    # about 4,400 and about 79,000 search nodes.
    g = hole(25) if ears == 0 else generate_instance(GeneratorParams(
        seed=3, ear_count=ears, max_ear_length=8, base_length=15))[0]
    for cls in ("cap-even-hole-free", "cap-4hole-odd-signable"):
        assert recognize(g, cls).accepted


def test_accepts_fixtures():
    for g in (hajos(), hole(5), hole(7), complete(6), path(5),
              add_universal_clique(hole(5), 2)):
        assert recognize(g, "cap-even-hole-free").accepted


def test_odd_signable_class_is_larger():
    # C6 contains an even hole but is odd-signable.
    assert recognize(hole(6), "cap-4hole-odd-signable").accepted
    assert recognize(hole(6), "cap-even-hole-free").status == "rejected"


def test_undecided_when_skeleton_exceeds_guard():
    verdict = recognize(hole(30), "cap-even-hole-free", budget=20)
    assert verdict.status == "undecided"
    assert verdict.detail == (
        "the even-hole-free oracle on atom 1 of 1 (30 vertices): the "
        "even-hole search ran out of its budget of 20 nodes")


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

    monkeypatch.setattr(decomposition, "min_fill_decomposition", refuse)
    verdicts = [recognize(g, cls) for cls in ("cap-even-hole-free",
                                              "cap-4hole-odd-signable")]
    assert verdicts == expected and all(v.accepted for v in verdicts)
    assert len(verdicts[0].atoms) == len(verdicts[0].tree.atoms()) > glue
    assert clique_number(g) == omega
    with pytest.raises(AssertionError, match="tree decomposition built"):
        mwss(g)


# The cap test that recognize reads off the atoms of the cutset tree.

def atom_cap(g):
    """detect_cap_in_atoms on the Atom records recognize builds for g."""
    return detect_cap_in_atoms(g, list(decompose(g)[1]))


def assert_cap_verdicts_agree(g, naive=True):
    """The atom cap test, detect_cap_fast and (when asked) the naive oracle
    agree on the 4-hole-free graph g, and a witness re-checks."""
    assert detect_4hole(g) is None
    found = atom_cap(g)
    assert (found is None) == (detect_cap_fast(g) is None)
    if naive:
        assert (found is None) == (find_forbidden_induced(g, "cap") is None)
    if found is not None:
        assert found.kind == "cap" and verify_witness(g, found)
    return found


def with_apex(g, u, v):
    """g plus one vertex adjacent to exactly u and v."""
    return Graph(g.n + 1, g.edges() + [(u, g.n), (v, g.n)])


@pytest.mark.parametrize("chunk", range(10))
def test_atom_cap_test_matches_both_detectors_on_gnp(chunk):
    # Caps are rare in 4-hole-free G(n, p) graphs, so each also gets an
    # apex over a random edge.
    caps = 0
    for seed in range(100 * chunk, 100 * chunk + 100):
        g = gnp(5 + seed % 12, (0.15, 0.2, 0.25, 0.3)[seed % 4],
                515000 + seed)
        rng = random.Random(seed)
        graphs = [g] + ([with_apex(g, *rng.choice(g.edges()))] if g.m
                        else [])
        for h in graphs:
            if h.n <= 16 and detect_4hole(h) is None:
                caps += assert_cap_verdicts_agree(h) is not None
    assert caps > 0


@lru_cache(maxsize=None)
def planted_instances(glue):
    """60 generated instances with glue_count glue, each with the graph
    that adds an apex over one of its edges, drawn by random.Random(glue).
    """
    from capfree.construct import GeneratorParams, generate_instance
    rng = random.Random(glue)
    out = []
    for seed in range(60):
        g, _ = generate_instance(GeneratorParams(
            seed=seed, ear_count=2, max_blowup=2, max_universal=1,
            glue_count=glue))
        u, v = g.edges()[rng.randrange(g.m)]
        out.append((g, with_apex(g, u, v)))
    return tuple(out)


@pytest.mark.parametrize("glue", [0, 3, 10])
def test_atom_cap_test_matches_on_generated_instances(glue):
    # The naive oracle enumerates every hole, which takes seconds on the
    # glued instances; detect_cap_fast is pinned against it above.
    caps = 0
    for g, planted in planted_instances(glue):
        assert atom_cap(g) is None
        if detect_4hole(planted) is None:
            caps += assert_cap_verdicts_agree(planted,
                                              naive=glue == 0) is not None
    assert caps >= 20


# sha256 over repr((kind, vertices, parts)) of every detect_cap_fast answer
# below, or repr(None) where it finds no cap, in order.
CAP_WITNESS_SHA256 = \
    "5bdec0912afdfbc998c203994b52cbf50ea2f576bfe8bbbd8790fb6c57b1b4ba"


def test_cap_witnesses_are_pinned():
    # Each search runs inside the block of its edge, but which cap comes
    # first and the path built for it must not change: on the 4-hole-free
    # planted instances above, and on sparse G(n, p) graphs of many
    # blocks, each also with an apex over a random edge.
    graphs = [planted for glue in (0, 3, 10)
              for _, planted in planted_instances(glue)
              if detect_4hole(planted) is None]
    for seed in range(400):
        g = gnp(6 + seed % 25, (0.1, 0.15, 0.2, 0.3)[seed % 4], 900000 + seed)
        graphs.append(g)
        if g.m:
            graphs.append(with_apex(g, *random.Random(seed).choice(g.edges())))
    digest = hashlib.sha256()
    caps = 0
    for g in graphs:
        w = detect_cap_fast(g)
        caps += w is not None
        digest.update(repr(None if w is None
                           else (w.kind, w.vertices, w.parts)).encode())
    assert caps == 685
    assert digest.hexdigest() == CAP_WITNESS_SHA256


def test_atom_cap_test_matches_on_the_small_graph_pool():
    from capfree.selftest import small_graph_pool
    for _, g in small_graph_pool():
        if g.n <= 12 and detect_4hole(g) is None:
            assert_cap_verdicts_agree(g)


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_atom_cap_test_matches_on_the_pinned_graphs(index):
    g = PINNED[index]
    if detect_4hole(g) is None:
        assert_cap_verdicts_agree(g, naive=g.n <= 16)


def test_atom_cap_test_matches_on_named_graphs():
    named = [G1, hole(6), hajos(), hole(5), hole(7), complete(6), path(5),
             add_universal_clique(hole(5), 2), add_universal_clique(hole(6), 1),
             add_universal_clique(blow_up(hole(7), [2, 1, 1, 2, 1, 1, 1]), 1),
             Graph(6, hole(5).edges() + [(5, 0), (5, 1)])]
    found = [assert_cap_verdicts_agree(g) for g in named]
    assert [w is not None for w in found] == [False] * 10 + [True]
    assert found[-1].parts == ((0, 1, 2, 3, 4), (5,))


def test_atom_cap_witness_runs_through_the_least_apex_neighbours():
    # G1's classes are {0, 1}, {2, 3}, ...; the apex 10 sees 1, 2 and 3.
    # u is its least neighbour, 1, and v the least one in another class, 2;
    # the other classes give their representatives.
    g = Graph(11, G1.edges() + [(1, 10), (2, 10), (3, 10)])
    assert assert_cap_verdicts_agree(g).parts == ((1, 2, 4, 6, 8), (10,))


def test_recognize_reads_caps_off_the_atoms(monkeypatch):
    from capfree import recognition
    from capfree.construct import GeneratorParams, generate_instance
    glued = generate_instance(GeneratorParams(
        seed=11, ear_count=1, max_blowup=2, max_universal=1,
        glue_count=3))[0]
    capped = Graph(6, hole(5).edges() + [(5, 0), (5, 1)])

    def refuse(g):
        raise AssertionError("detect_cap_fast called")

    monkeypatch.setattr(recognition, "detect_cap_fast", refuse)
    for g in (G1, hajos(), glued, hole(6)):
        assert recognize(g, "cap-4hole-odd-signable").accepted
    verdict = recognize(capped, "cap-even-hole-free")
    assert verdict.status == "rejected" and verdict.witness.kind == "cap"
    assert verdict.tree is None


def test_an_atom_without_skeleton_falls_back_to_the_whole_graph_search():
    # C5 with an apex x over 0 and 1, and x joined to 3 through one more
    # vertex: one atom, whose would-be skeleton has the triangle 0, 1, x.
    g = Graph(7, hole(5).edges() + [(5, 0), (5, 1), (6, 5), (6, 3)])
    atoms = list(decompose(g)[1])
    assert [type(atom.extracted) for atom in atoms] == [SkeletonReject]
    assert detect_cap_in_atoms(g, atoms) == detect_cap_fast(g)
    verdict = recognize(g, "cap-even-hole-free")
    assert verdict.status == "rejected" and verdict.tree is None
    assert verdict.witness == detect_cap_fast(g)
