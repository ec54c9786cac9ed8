"""The block-wise cutset scan against a copy of the whole-graph scan it
replaced: one MCS-M pass over all of g, no blocks, no shortened threads.
Atoms as sets and find_clique_cutset's verdict must agree, and the exact
spines (cutsets and atoms in order) are pinned by one digest."""

import hashlib

import pytest

from capfree import decomposition
from capfree.construct import (GeneratorParams, generate_instance,
                               random_skeleton)
from capfree.decomposition import clique_cutset_tree, find_clique_cutset
from capfree.graphs import (Graph, add_universal_clique, blow_up, gnp, hole,
                            mask_members, path, vertex_set)
from capfree.rng import Xoshiro256StarStar
from capfree.treewidth import mcs_m
from test_large_inputs import subdivided_grid


def whole_graph_pieces(g):
    """The Atoms scan over all of g: (cutset, atom) per split, then
    ((), last atom)."""
    _, madj, generators = mcs_m([g.mask(v) for v in g.vertices()])
    alive = set(g.vertices())
    for x in generators:
        cut = set(mask_members(madj[x]))
        if g.is_clique(cut):
            side, stack = {x}, [x]
            while stack:
                for u in g.adj[stack.pop()]:
                    if u in alive and u not in side and u not in cut:
                        side.add(u)
                        stack.append(u)
            yield vertex_set(cut), vertex_set(side | cut)
            alive -= side
    yield (), vertex_set(alive)


def whole_graph_has_cutset(g):
    if g.n and len(component_of_0(g)) < g.n:
        return True
    return bool(next(whole_graph_pieces(g))[0])


def component_of_0(g):
    seen, stack = {0}, [0]
    while stack:
        for u in g.adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def subdivide(g, rng, share):
    """g with about share of its edges each replaced by a path of 1 to 3
    new vertices."""
    n, edges = g.n, []
    for u, v in g.edges():
        if rng.below(100) < share:
            k = 1 + rng.below(3)
            chain = [u, *range(n, n + k), v]
            n += k
            edges += zip(chain, chain[1:])
        else:
            edges.append((u, v))
    return Graph(n, edges)


def disjoint_union(parts):
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph(offset, edges)


def random_graphs():
    rng = Xoshiro256StarStar(2024)
    for seed in range(240):
        g = gnp(4 + seed % 11, (0.15, 0.25, 0.35, 0.5, 0.65)[seed % 5],
                700 + seed)
        yield f"gnp{seed}", subdivide(g, rng, (0, 30, 60, 100)[seed % 4])


def instances():
    for glue in (0, 3, 10):
        for seed in range(4):
            g, _ = generate_instance(GeneratorParams(
                seed=31 * glue + seed, ear_count=2, max_blowup=1 + seed % 2,
                max_universal=seed % 2, glue_count=glue,
                target_class=("cap-even-hole-free",
                              "cap-4hole-odd-signable")[seed % 2]))
            yield f"glue{glue}_seed{seed}", g


def blown_up_graphs():
    """Random graphs with every vertex blown up by 1 to 3 and a universal
    clique of 0 to 2 vertices: blocks full of true twins."""
    rng = Xoshiro256StarStar(2025)
    for seed in range(120):
        g = gnp(3 + seed % 9, (0.2, 0.3, 0.45, 0.6)[seed % 4], 1300 + seed)
        g = blow_up(g, [1 + rng.below(3) for _ in g.vertices()])
        yield f"blown{seed}", add_universal_clique(g, rng.below(3))


def blown_up_instances():
    for glue in (0, 3, 10):
        for seed in range(4):
            g, _ = generate_instance(GeneratorParams(
                seed=57 * glue + seed, ear_count=2, max_blowup=3,
                max_universal=2, glue_count=glue,
                target_class=("cap-even-hole-free",
                              "cap-4hole-odd-signable")[seed % 2]))
            yield f"blown_glue{glue}_seed{seed}", g


def flower(petals, length):
    """petals cycles of the given length through vertex 0: a cut vertex
    of higher degree than any of its blocks."""
    edges = []
    for i in range(petals):
        ring = [0, *range(1 + i * (length - 1), (i + 1) * (length - 1) + 1)]
        edges += zip(ring, ring[1:] + ring[:1])
    return Graph(1 + petals * (length - 1), edges)


C5X2 = blow_up(hole(5), [2] * 5)
FAMILIES = dict(random_graphs())
FAMILIES.update(instances())
FAMILIES.update(blown_up_graphs())
FAMILIES.update(blown_up_instances())
FAMILIES.update({
    "union": disjoint_union([path(4), hole(6), C5X2, path(1), hole(5),
                             blow_up(hole(7), [1, 2, 1, 2, 1, 2, 1]),
                             path(2), hole(9)]),
    "grid4_2": subdivided_grid(4, 2),
    "friendship": flower(8, 3),
    "flower": flower(6, 5),
    "flower_chorded": Graph(flower(6, 5).n,
                            flower(6, 5).edges() + [(1, 3), (5, 7)]),
    "empty": Graph(0, []),
})


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_atoms_match_the_whole_graph_scan(name):
    g = FAMILIES[name]
    expected = sorted(atom for _, atom in whole_graph_pieces(g))
    tree = clique_cutset_tree(g)
    assert sorted(tree.atoms()) == expected
    for node in tree.internal_nodes():
        cut = set(node.cutset)
        left = set(node.left.vertices) - cut
        right = set(node.right.vertices) - cut
        assert g.is_clique(cut) and left and right
        assert set(node.left.vertices) & set(node.right.vertices) == cut
        assert not any(g.has_edge(a, b) for a in left for b in right)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_cutset_verdict_matches_the_whole_graph_scan(name):
    g = FAMILIES[name]
    found = find_clique_cutset(g)
    assert (found is not None) == whole_graph_has_cutset(g)
    if found is None:
        return
    cutset, (h1, h2) = found
    assert g.is_clique(cutset) and h1 and h2
    assert set(cutset) | set(h1) | set(h2) == set(g.vertices())
    assert not set(cutset) & (set(h1) | set(h2)) and not set(h1) & set(h2)
    assert not any(g.has_edge(a, b) for a in h1 for b in h2)
    if cutset == ():
        assert set(h1) == component_of_0(g)


def test_generated_skeletons_have_no_clique_cutset():
    # random_skeleton looks for no cutset: no good ear can make one.
    for seed in range(1, 31):
        for target in ("cap-even-hole-free", "cap-4hole-odd-signable"):
            for ears, length in ((2, 6), (3, 6), (4, 8), (6, 8)):
                skeleton, _ = random_skeleton(GeneratorParams(
                    seed=seed, ear_count=ears, max_ear_length=length,
                    target_class=target))
                assert find_clique_cutset(skeleton) is None
                assert not whole_graph_has_cutset(skeleton)


def pinned_graphs():
    """The digest's corpus, in order: every graph above, G(n, p) up to 40
    vertices, glued instances with K1 and K2 joints, blow-ups with
    universal cliques of 1 to 3 vertices, and grids, plain and
    subdivided."""
    for name in sorted(FAMILIES):
        yield FAMILIES[name]
    for seed in range(120):
        yield gnp(6 + seed % 35, (0.1, 0.2, 0.3, 0.5, 0.7)[seed % 5],
                  4100 + seed)
    joint_sizes = set()
    for seed in range(1, 13):
        g, provenance = generate_instance(GeneratorParams(
            seed=seed, ear_count=2 + seed % 3, max_ear_length=8,
            max_blowup=2, max_universal=2, glue_count=(3, 6)[seed % 2],
            target_class=("cap-even-hole-free",
                          "cap-4hole-odd-signable")[seed % 2]))
        joint_sizes.update(len(j["clique_first"])
                           for j in provenance["joints"])
        yield g
    assert joint_sizes == {1, 2}
    rng = Xoshiro256StarStar(2026)
    for seed in range(60):
        g = gnp(3 + seed % 10, (0.25, 0.4, 0.55)[seed % 3], 4300 + seed)
        g = blow_up(g, [1 + rng.below(3) for _ in g.vertices()])
        yield add_universal_clique(g, 1 + seed % 3)
    for side, k in ((6, 0), (9, 0), (4, 1), (5, 2), (3, 4)):
        yield subdivided_grid(side, k)


# sha256 over, per graph of pinned_graphs in its order, the repr of the
# spine's (cutset, left atom) list and the last atom.
SPINES_SHA256 = \
    "bb0d72868f1bb35cb203e920a90784def3335bc784dd720b494a603c30189595"


def test_cutset_tree_spines_are_pinned():
    digest = hashlib.sha256()
    for g in pinned_graphs():
        tree = clique_cutset_tree(g)
        spine = [(node.cutset, node.left.atom)
                 for node in tree.internal_nodes()]
        digest.update(repr((spine, tree.leaves()[-1].atom)).encode())
    assert digest.hexdigest() == SPINES_SHA256


def scan_sizes(monkeypatch):
    sizes = []

    def counted(adj):
        sizes.append(len(adj))
        return mcs_m(adj)

    monkeypatch.setattr(decomposition, "mcs_m", counted)
    return sizes


@pytest.mark.parametrize("g", [hole(5000), path(5000), Graph(5000, []),
                               hole(4), path(2)],
                         ids=["hole5000", "path5000", "isolated5000",
                              "hole4", "path2"])
def test_cheap_blocks_need_no_scan(monkeypatch, g):
    sizes = scan_sizes(monkeypatch)
    clique_cutset_tree(g)
    find_clique_cutset(g)
    assert sizes == []


def shortened_size(g, atom):
    """|atom| once each run of its degree-2 vertices with nonadjacent
    neighbours is cut to one vertex."""
    thread = {v for v in atom
              if len(g.adj[v]) == 2 and not g.has_edge(*g.adj[v])}
    # A run of k thread vertices has k - 1 edges inside the thread set.
    inner = sum(u in thread for v in thread for u in g.adj[v]) // 2
    return len(atom) - inner


def test_glued_scans_see_only_shortened_blocks(monkeypatch):
    g, _ = generate_instance(GeneratorParams(
        seed=11, ear_count=2, glue_count=10))
    atoms = [atom for _, atom in whole_graph_pieces(g)]
    # Every glued cutset here is a single vertex, so the atoms are blocks.
    assert all(len(cut) == 1 for cut, _ in list(whole_graph_pieces(g))[:-1])
    sizes = scan_sizes(monkeypatch)
    clique_cutset_tree(g)
    # One scan per atom, each on the atom with its threads shortened.
    assert sorted(sizes) == sorted(shortened_size(g, a) for a in atoms)
    assert max(sizes) < min(map(len, atoms))


def test_twins_can_merge_into_a_cut_vertex_of_the_quotient():
    # 1 and 2 are true twins; merged, they cut 0 off the rest, so the
    # quotient has as many edges as vertices and is still no cycle.
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 5), (2, 5),
                  (3, 4), (4, 5)])
    tree = clique_cutset_tree(g)
    assert sorted(tree.atoms()) == [(0, 1, 2), (1, 2, 3, 4, 5)]
    assert [node.cutset for node in tree.internal_nodes()] == [(1, 2)]
    assert find_clique_cutset(g) is not None


@pytest.mark.parametrize("k", [5, 7, 9])
def test_blown_up_holes_quotient_to_a_hole(monkeypatch, k):
    # The blowup workload's graphs: a hole blown up by 2 is one block whose
    # twin quotient is the hole, so it needs no scan; with a universal
    # vertex the quotient is a wheel, scanned once on its k + 1 vertices.
    sizes = scan_sizes(monkeypatch)
    blown = blow_up(hole(k), [2] * k)
    assert clique_cutset_tree(blown).atoms() == [tuple(blown.vertices())]
    assert sizes == []
    wheel = add_universal_clique(blown, 1)
    assert clique_cutset_tree(wheel).atoms() == [tuple(wheel.vertices())]
    assert sizes == [k + 1]


def test_twins_are_read_inside_the_block(monkeypatch):
    # 0 and 1 are twins in the blown-up C5 but not in g, where a pendant
    # path hangs off 0; the block still quotients to the C5.
    sizes = scan_sizes(monkeypatch)
    blown = blow_up(hole(5), [2] * 5)
    g = Graph(12, blown.edges() + [(0, 10), (10, 11)])
    assert sorted(clique_cutset_tree(g).atoms()) == [
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (0, 10), (10, 11)]
    assert sizes == []


def test_a_large_blown_up_wheel_is_one_atom(monkeypatch):
    sizes = scan_sizes(monkeypatch)
    g = add_universal_clique(blow_up(hole(9), [40] * 9), 2)
    assert clique_cutset_tree(g).atoms() == [tuple(g.vertices())]
    assert sizes == [10]
