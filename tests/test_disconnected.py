"""On a disconnected graph every answer is the per-component answers
stitched together: the atom scan splits the components along empty
cutsets, and no answer depends on where they sit in the tree."""

import pytest

from capfree import decomposition
from capfree.decomposition import clique_cutset_tree
from capfree.graphs import (Graph, add_universal_clique, blow_up, gnp, hole,
                            induced_subgraph, path)
from capfree.rng import Xoshiro256StarStar
from capfree.solvers import chromatic_number, mwss, q_color_graph

C5X2 = blow_up(hole(5), [2] * 5)
C7_BLOWN = blow_up(hole(7), [1, 2, 1, 2, 1, 2, 1])


def disjoint_union(parts, seed):
    """The parts side by side, vertex ids shuffled so that components
    interleave."""
    n = sum(part.n for part in parts)
    ids = list(range(n))
    rng = Xoshiro256StarStar(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    edges, offset = [], 0
    for part in parts:
        for u, v in part.edges():
            a, b = ids[offset + u], ids[offset + v]
            edges.append((min(a, b), max(a, b)))
        offset += part.n
    return Graph(n, edges)


def components(g):
    seen, out = set(), []
    for s in g.vertices():
        if s not in seen:
            comp, stack = {s}, [s]
            while stack:
                for u in g.adj[stack.pop()]:
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            out.append(sorted(comp))
    return out


# Low-p G(n, p) graphs (the few connected ones are dropped) and unions of
# paths, holes and blow-ups.
GNP = {f"gnp{seed}": gnp(10 + seed % 7, (0.08, 0.12, 0.18)[seed % 3],
                         900 + seed) for seed in range(12)}
CASES = {
    **{name: g for name, g in GNP.items() if len(components(g)) > 1},
    "path_hole_blowup": disjoint_union([path(4), hole(5), C5X2], 1),
    "isolated_and_blowups": disjoint_union(
        [path(1), C7_BLOWN, path(1), C5X2, path(2)], 2),
    "holes_and_paths": disjoint_union(
        [hole(7), path(3), hole(6), path(5), path(1)], 3),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    g = CASES[request.param]
    assert len(components(g)) > 1
    return g, [induced_subgraph(g, comp) for comp in components(g)]


def test_atoms_are_the_components_atoms(case):
    g, parts = case
    tree = clique_cutset_tree(g)
    expected = {tuple(back[v] for v in atom)
                for sub, back in parts
                for atom in clique_cutset_tree(sub).atoms()}
    assert set(tree.atoms()) == expected
    assert len(tree.atoms()) == len(expected)
    for node in tree.internal_nodes():
        assert node.left.is_leaf


def test_one_atom_scan_per_tree(monkeypatch):
    calls = 0
    mcs_m = decomposition.mcs_m

    def counted(adj):
        nonlocal calls
        calls += 1
        return mcs_m(adj)

    monkeypatch.setattr(decomposition, "mcs_m", counted)
    # Every block of this union is an edge or a hole, so none is scanned.
    clique_cutset_tree(CASES["holes_and_paths"])
    assert calls == 0
    # A blow-up of a hole is one block whose twin quotient is a hole, so it
    # needs no scan either.
    clique_cutset_tree(CASES["path_hole_blowup"])
    assert calls == 0
    # With a universal vertex the quotient is a wheel, which needs one scan;
    # the rest need none.
    clique_cutset_tree(disjoint_union(
        [path(4), hole(5), add_universal_clique(C5X2, 1)], 1))
    assert calls == 1


def test_mwss_is_stitched_from_components(case):
    g, parts = case
    rng = Xoshiro256StarStar(g.n)
    w = [rng.below(5) for _ in range(g.n)]
    picked, weight = set(), 0
    for sub, back in parts:
        result = mwss(sub, [w[v] for v in back])
        picked.update(back[v] for v in result.vertices)
        weight += result.weight
    result = mwss(g, w)
    assert result.vertices == tuple(sorted(picked))
    assert result.weight == weight


def test_colorings_are_stitched_from_components(case):
    g, parts = case
    chi, colors = 0, [0] * g.n
    for sub, back in parts:
        part_chi, part_colors = chromatic_number(sub)
        chi = max(chi, part_chi)
        for v, c in zip(back, part_colors):
            colors[v] = c
    assert chromatic_number(g) == (chi, colors)

    for q in range(max(chi - 1, 1), chi + 2):
        stitched = [0] * g.n
        for sub, back in parts:
            part = q_color_graph(sub, q)
            if part is None:
                stitched = None
                break
            for v, c in zip(back, part):
                stitched[v] = c
        assert q_color_graph(g, q) == stitched
