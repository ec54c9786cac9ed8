import copy
import pickle

import pytest

from capfree.graphs import (Graph, GraphFormatError, add_universal_clique,
                            blow_up, complete, construct_named, cube, gnp,
                            hajos, hole, induced_subgraph, mask_members,
                            mask_of, parse_graph, path, reach,
                            serialize_graph)
from capfree.rng import Xoshiro256StarStar

C5_TEXT = "p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"


def test_parse_c5():
    g = parse_graph(C5_TEXT)
    assert g.n == 5 and g.m == 5
    assert g == hole(5)


def test_parse_single_vertex():
    g = parse_graph("p 1 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_comments_and_weights():
    g = parse_graph("c a comment\np 3 2\ne 1 2\ne 2 3\nw 2 7\n")
    assert g.weights == (1, 7, 1)


@pytest.mark.parametrize("text,line,fragment", [
    ("p 2 1\ne 1 1\n", 2, "loop"),
    ("p 2 1\ne 1 3\n", 2, "1 <= u < v"),
    ("p 2 1\ne 2 1\n", 2, "1 <= u < v"),
    ("p 3 2\ne 1 2\ne 1 2\n", 3, "duplicate"),
    ("p x 0\n", 1, "integers"),
    ("e 1 2\n", 1, "header"),
    ("p 3 2\ne 1 2\n", 1, "declares 2 edges"),
    ("p 2 1\ne 1 2\nw 1 -3\n", 3, "nonnegative"),
    ("p 1 0\np 1 0", 2, "duplicate header"),
    ("p 1", 1, "header must be 'p <n> <m>'"),
    ("p -1 0", 1, "nonnegative"),
    ("p 2 1\ne 1", 2, "edge must be 'e <u> <v>'"),
    ("p 2 1\ne 1 x", 2, "integers"),
    ("w 1 2", 1, "weight before header"),
    ("p 1 0\nw 1", 2, "weight must be 'w <v> <weight>'"),
    ("p 1 0\nw 1 x", 2, "integers"),
    ("p 1 0\nw 2 5", 2, "out of range"),
    ("p 1 0\nx 1", 2, "unknown line kind"),
    ("c only", 1, "missing header"),
])
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_round_trip_is_canonical():
    messy = "c hi\np 3 2\ne 2 3\ne 1 3\n"
    g = parse_graph(messy)
    canonical = serialize_graph(g)
    assert parse_graph(canonical) == g
    assert serialize_graph(parse_graph(canonical)) == canonical


def test_weighted_round_trip():
    g = hole(4).with_weights([3, 1, 1, 9])
    assert parse_graph(serialize_graph(g)) == g


def test_named_hole():
    g = construct_named("hole", 5)
    assert g.n == 5 and g.m == 5


def test_named_cube():
    g = construct_named("cube")
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in g.vertices())


@pytest.mark.parametrize("name,args,expected", [
    ("complete", ("4",), complete(4)),
    ("path", ("3",), path(3)),
    ("gnp", ("9", "0.5", "2"), gnp(9, 0.5, 2)),
])
def test_named_constructions_parse_their_arguments(name, args, expected):
    assert construct_named(name, *args) == expected


# Each builder with an argument it refuses, and a fragment of its message.
BAD_ARGUMENTS = {
    "negative-n": (lambda: Graph(-1, []), "vertex count"),
    "weights-length": (lambda: Graph(2, [], [1]), "weights length"),
    "hole2": (lambda: hole(2), "at least 3"),
    "path0": (lambda: path(0), "at least 1"),
    "complete-1": (lambda: complete(-1), "nonnegative"),
    "universal-1": (lambda: add_universal_clique(hole(4), -1),
                    "clique size"),
    "unknown-name": (lambda: construct_named("pentagon"),
                     "unknown construction"),
    "below0": (lambda: Xoshiro256StarStar(1).below(0), "n >= 1"),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_builders_refuse_bad_arguments(name):
    build, fragment = BAD_ARGUMENTS[name]
    with pytest.raises(ValueError, match=fragment):
        build()


def test_hajos_matches_figure_adjacency():
    # Independent recount: the 5-hole v1..v5, v6 adjacent to {v1,v2,v3},
    # v7 adjacent to {v1,v4,v5}.
    adj = {1: {2, 5}, 2: {3}, 3: {4}, 4: {5}, 6: {1, 2, 3}, 7: {1, 4, 5}}
    degrees = {v: 0 for v in range(1, 8)}
    edges = 0
    for u, nbrs in adj.items():
        for v in nbrs:
            degrees[u] += 1
            degrees[v] += 1
            edges += 1
    g = hajos()
    assert g.n == 7 and g.m == edges == 11
    assert sorted((g.degree(v) for v in g.vertices()), reverse=True) \
        == sorted(degrees.values(), reverse=True) == [4, 3, 3, 3, 3, 3, 3]


def test_gnp_is_reproducible():
    a = gnp(20, 0.4, 7)
    b = gnp(20, 0.4, 7)
    c = gnp(20, 0.4, 8)
    assert a == b
    assert a != c


def test_gnp_validates_probability():
    with pytest.raises(ValueError):
        gnp(5, 1.5, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        gnp(-1, 0.5, 0)


def test_blow_up_g1_counts():
    g1 = blow_up(hole(5), [2] * 5)
    assert g1.n == 10          # |V(G_k)| = 10k at k=1
    assert g1.m == 25          # 5 internal + 5*4 cross edges
    for v in range(0, 10, 2):
        assert g1.has_edge(v, v + 1)


def test_blow_up_identity():
    g = hajos()
    assert blow_up(g, [1] * g.n) == g


def test_blow_up_rejects_zero():
    with pytest.raises(ValueError):
        blow_up(hole(4), [1, 0, 1, 1])
    with pytest.raises(ValueError, match="sizes length"):
        blow_up(hole(4), [1, 1, 1])


def test_blow_up_contracts_back():
    g = gnp(8, 0.4, 3)
    sizes = [1 + (v % 3) for v in g.vertices()]
    big = blow_up(g, sizes)
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    block_of = {}
    for v in g.vertices():
        for i in range(sizes[v]):
            block_of[offsets[v] + i] = v
    contracted = {(min(block_of[a], block_of[b]),
                   max(block_of[a], block_of[b]))
                  for a, b in big.edges() if block_of[a] != block_of[b]}
    assert contracted == set(g.edges())


def test_universal_clique_wheel():
    w = add_universal_clique(hole(5), 1)
    assert w.degree(5) == 5
    assert add_universal_clique(hole(5), 0) == hole(5)
    assert add_universal_clique(complete(3), 2) == complete(5)


def test_induced_subgraph():
    empty, _ = induced_subgraph(hole(5), [])
    assert empty.n == 0
    p, back = induced_subgraph(hole(5), [1, 2, 3, 4])
    assert p == path(4) and back == (1, 2, 3, 4)
    tri, _ = induced_subgraph(complete(5), [0, 2, 4])
    assert tri == complete(3)


def test_induced_subgraph_keeps_weights():
    g = path(3).with_weights([5, 6, 7])
    sub, _ = induced_subgraph(g, [0, 2])
    assert sub.weights == (5, 7)


def edge_built_subgraph(g, keep):
    """The induced subgraph built from an edge list through Graph."""
    index = {old: new for new, old in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index]
    weights = [g.weight(v) for v in keep] if g.has_weights() else None
    return Graph(len(keep), edges, weights)


@pytest.mark.parametrize("seed", range(6))
def test_induced_subgraph_matches_an_edge_built_copy(seed):
    rng = Xoshiro256StarStar(seed)
    for i in range(60):
        g = gnp(rng.below(16), (0.1, 0.3, 0.6)[i % 3], 100 * seed + i)
        if i % 2:
            g = g.with_weights([rng.below(50) for _ in g.vertices()])
        # Empty, one-vertex, whole and random selections in turn.
        keep = [[], [v for v in g.vertices() if v == g.n // 2],
                list(g.vertices()),
                [v for v in g.vertices() if rng.below(2)]][i % 4]
        sub, back = induced_subgraph(g, reversed(keep))
        ref = edge_built_subgraph(g, keep)
        assert back == tuple(keep)
        assert (sub.n, sub.adj, sub.m, sub.weights, sub.has_weights()) == (
            ref.n, ref.adj, ref.m, ref.weights, ref.has_weights())
        assert [sub.mask(v) for v in sub.vertices()] == [
            ref.mask(v) for v in ref.vertices()]
        assert sub == ref and hash(sub) == hash(ref)


def test_induced_subgraph_range_check():
    with pytest.raises(ValueError):
        induced_subgraph(hole(4), [0, 9])


@pytest.mark.parametrize("seed", range(10))
def test_generated_graphs_are_simple_and_sorted(seed):
    g = gnp(12, 0.5, seed)
    for v in g.vertices():
        nbrs = g.adj[v]
        assert list(nbrs) == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert v in g.adj[u]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_graph_is_immutable():
    g = hole(4)
    with pytest.raises(AttributeError):
        g.n = 7


@pytest.mark.parametrize("g", [path(5), path(5).with_weights([3, -1, 4, 1, 5]),
                               Graph(0, [])],
                         ids=["unweighted", "weighted", "empty"])
def test_graph_pickles_and_copies(g):
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g),
                 copy.deepcopy(g)):
        assert twin == g
        assert (twin.adj, twin.m, twin.has_weights()) \
            == (g.adj, g.m, g.has_weights())
        with pytest.raises(AttributeError):
            twin.n = 7


def set_reach(g: Graph, start: set[int], allowed: set[int]) -> set[int]:
    """Breadth-first search on neighbour sets: start, and every vertex a
    path from start through allowed vertices meets."""
    seen = set(start)
    frontier = list(start)
    while frontier:
        frontier = [u for x in frontier for u in g.adj[x]
                    if u in allowed and u not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("seed", range(6))
def test_reach_matches_a_set_search(seed):
    rng = Xoshiro256StarStar(seed)
    for i in range(50):
        g = gnp(rng.below(24), (0.05, 0.15, 0.4)[i % 3], 1000 * seed + i)
        # Start vertices may lie outside allowed; they still spread.
        start = {v for v in g.vertices() if rng.below(5) == 0}
        allowed = {v for v in g.vertices() if rng.below(3)}
        found = reach([g.mask(v) for v in g.vertices()], mask_of(start),
                      mask_of(allowed))
        assert mask_members(found) == sorted(set_reach(g, start, allowed))


@pytest.mark.parametrize("seed", range(20))
def test_is_stable_matches_pairwise_definition(seed):
    g = gnp(12, (0.1, 0.3, 0.6)[seed % 3], 300 + seed)
    rng = Xoshiro256StarStar(seed)
    for _ in range(50):
        vs = [rng.below(g.n) for _ in range(rng.below(7))]
        pairwise = not any(g.has_edge(u, v) for i, u in enumerate(vs)
                           for v in vs[i + 1:])
        assert g.is_stable(vs) == pairwise
        assert g.is_stable(iter(vs)) == pairwise


def test_is_stable_reads_masks_not_edges(monkeypatch):
    calls = 0
    has_edge = Graph.has_edge

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return has_edge(self, u, v)

    monkeypatch.setattr(Graph, "has_edge", counted)
    g = hole(2000)
    assert g.is_stable(range(0, 2000, 2))
    assert not g.is_stable([*range(0, 2000, 2), 1])
    assert calls == 0
