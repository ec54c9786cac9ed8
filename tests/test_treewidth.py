import heapq
import random
from itertools import combinations

import pytest

from capfree import decomposition, treewidth
from capfree.construct import (Ear, EarSequence, GeneratorParams,
                               generate_instance, random_skeleton,
                               skeleton_from_ears, triangulation_from_ears)
from capfree.decomposition import clique_cutset_tree, decompose
from capfree.graphs import (Graph, blow_up, complete, cube, gnp, hole,
                            mask_members, path)
from capfree.oracles import SearchBudgetExceeded, brute_solve
from capfree.treewidth import (TreeDecomposition, TreewidthReject,
                               _exact_order, _min_fill_order,
                               chordal_clique_number,
                               decomposition_from_order, is_chordal, mcs_m,
                               min_fill_decomposition, nice_decomposition,
                               skeleton_tree_decomposition)
from capfree.twins import extract_skeleton, lift_tree_decomposition
from test_large_inputs import long_path_decomposition, subdivided_grid

K66 = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])
GRID6 = Graph(36, [(r * 6 + c, r * 6 + c + 1)
                   for r in range(6) for c in range(5)]
              + [(r * 6 + c, (r + 1) * 6 + c)
                 for r in range(5) for c in range(6)])

GOOD_EAR_ON_C5 = Ear(path=(0, 5, 6, 7, 8, 9, 2), apex=1,
                     apex_links=(7,), host=(0, 1, 2, 3, 4))


def test_c5_width_two():
    td = skeleton_tree_decomposition(hole(5))
    assert isinstance(td, TreeDecomposition)
    assert td.width == 2 and td.is_valid(hole(5))


def test_cube_width_at_most_four():
    td = skeleton_tree_decomposition(cube())
    assert td.width <= 4 and td.is_valid(cube())


def test_triangle_input_is_a_precondition_error():
    with pytest.raises(ValueError):
        skeleton_tree_decomposition(complete(3))


def test_k66_rejected_by_exact_search():
    assert skeleton_tree_decomposition(K66) == TreewidthReject(5)


def test_budget_exhaustion_is_undecided():
    with pytest.raises(SearchBudgetExceeded,
                       match="^the width-5 search ran out of its budget of "
                             "40 nodes$"):
        skeleton_tree_decomposition(GRID6, budget=40)


@pytest.mark.parametrize("seed", range(1, 21))
def test_generated_skeletons_have_width_5(seed):
    params = GeneratorParams(seed=seed, ear_count=seed % 5,
                             max_ear_length=6 + 2 * (seed % 2))
    skeleton, _ = random_skeleton(params)
    td = skeleton_tree_decomposition(skeleton)
    assert isinstance(td, TreeDecomposition)
    assert td.width <= 5 and td.is_valid(skeleton)


def test_triangulation_base_c5():
    tri = triangulation_from_ears(EarSequence((0, 1, 2, 3, 4), ()))
    assert is_chordal(masks(tri))
    # Fan triangulation of a 5-hole: largest clique has 4 vertices.
    assert chordal_clique_number(tri) == 4
    assert brute_solve(tri, "max-clique").value == 4


def test_triangulation_base_c7():
    tri = triangulation_from_ears(EarSequence(tuple(range(7)), ()))
    assert is_chordal(masks(tri))
    assert chordal_clique_number(tri) <= 5


def test_triangulation_with_one_ear():
    es = EarSequence((0, 1, 2, 3, 4), (GOOD_EAR_ON_C5,))
    tri = triangulation_from_ears(es)
    assert is_chordal(masks(tri))
    assert chordal_clique_number(tri) <= 6
    skeleton = skeleton_from_ears(es)
    for u, v in skeleton.edges():
        assert tri.has_edge(u, v), "triangulation contains skeleton edges"


def test_triangulation_rejects_non_good_ear():
    bad = Ear(path=(0, 5, 6, 7, 8, 9, 2), apex=1,
              apex_links=(6, 7), host=(0, 1, 2, 3, 4))  # even link count
    with pytest.raises(ValueError):
        triangulation_from_ears(EarSequence((0, 1, 2, 3, 4), (bad,)))


def test_lift_blown_c5():
    g1 = blow_up(hole(5), [2] * 5)
    sd = extract_skeleton(g1)
    td = skeleton_tree_decomposition(sd.skeleton)
    lifted = lift_tree_decomposition(td, sd)
    assert lifted.is_valid(g1)
    assert max(len(b) for b in lifted.bags) <= 6
    assert lifted.width <= 5


def test_lift_universal_adds_one():
    from capfree.graphs import add_universal_clique
    wheel = add_universal_clique(hole(5), 1)
    sd = extract_skeleton(wheel)
    td = skeleton_tree_decomposition(sd.skeleton)
    lifted = lift_tree_decomposition(td, sd)
    assert lifted.width == td.width + 1
    assert lifted.is_valid(wheel)


def test_lift_identity_on_singletons():
    sd = extract_skeleton(hole(7))
    td = skeleton_tree_decomposition(sd.skeleton)
    lifted = lift_tree_decomposition(td, sd)
    assert lifted.bags == td.bags and lifted.width == td.width


def test_lift_rejects_mismatched_skeleton():
    sd = extract_skeleton(hole(7))
    wrong = TreeDecomposition(((0, 1, 9),), ())
    with pytest.raises(ValueError):
        lift_tree_decomposition(wrong, sd)


def test_nice_single_bag():
    td = TreeDecomposition(((0, 1, 2),), ())
    nd = nice_decomposition(td)
    kinds = [n.kind for n in nd.nodes]
    assert kinds.count("leaf") == 1
    assert kinds.count("introduce") == 3
    assert "join" not in kinds
    assert nd.width == td.width
    assert nd.as_tree_decomposition().is_valid(complete(3))


def test_nice_path_of_bags():
    td = TreeDecomposition(((0, 1), (1, 2), (2, 3)), ((0, 1), (1, 2)))
    nd = nice_decomposition(td)
    assert nd.width == 1
    assert "join" not in {n.kind for n in nd.nodes}
    assert nd.as_tree_decomposition().is_valid(path(4))
    assert nd.nodes[nd.root].bag == ()


def test_nice_join_only_at_branches():
    star = TreeDecomposition(((0, 1), (1, 2), (1, 3)), ((0, 1), (0, 2)))
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert star.is_valid(g)
    nd = nice_decomposition(star)
    joins = [n for n in nd.nodes if n.kind == "join"]
    assert len(joins) == 1
    assert nd.as_tree_decomposition().is_valid(g)
    assert nd.width == star.width


@pytest.mark.parametrize("seed", range(10))
def test_nice_preserves_validity_random(seed):
    g = gnp(9, 0.4, 34 + seed)
    td = min_fill_decomposition(g)
    nd = nice_decomposition(td)
    assert nd.width == td.width
    assert nd.as_tree_decomposition().is_valid(g)
    for node in nd.nodes:
        assert node.kind in ("leaf", "introduce", "forget", "join")
        if node.kind == "join":
            left, right = node.children
            assert nd.nodes[left].bag == nd.nodes[right].bag == node.bag


def spanned_graph(td, n):
    """The graph in which every bag of td is a clique."""
    return Graph(n, sorted({pair for bag in td.bags
                            for pair in combinations(bag, 2)}))


def masks(g):
    return [g.mask(v) for v in g.vertices()]


def maximal_cliques(g):
    cliques = [set(c) for k in range(1, g.n + 1)
               for c in combinations(g.vertices(), k) if g.is_clique(c)]
    return sorted(tuple(sorted(c)) for c in cliques
                  if not any(c < d for d in cliques))


@pytest.mark.parametrize("seed", range(12))
def test_mcs_m_adds_no_fill_to_chordal_graphs(seed):
    g = gnp(6 + seed % 7, (0.2, 0.35, 0.5)[seed % 3], 500 + seed)
    h = spanned_graph(min_fill_decomposition(g), g.n)
    order, madj, _ = mcs_m(masks(h))
    position = {v: i for i, v in enumerate(order)}
    for v in h.vertices():
        assert madj[v] == sum(1 << u for u in h.adj[v]
                              if position[u] > position[v])
    assert is_chordal(masks(h))
    assert is_chordal(masks(g)) == (g == h)
    assert chordal_clique_number(h) == brute_solve(h, "max-clique").value


def heap_mcs_m(adj):
    """The heap-driven MCS-M that mcs_m replaced, on neighbour sets: the
    reference for mcs_m's order, madj and generators."""
    n = len(adj)
    weight = [0] * n
    numbered = [False] * n
    order = [0] * n
    madj = [set() for _ in range(n)]
    generators = []
    queue = [(0, v) for v in range(n)]
    pop, push = heapq.heappop, heapq.heappush
    last = -1
    for i in range(n - 1, -1, -1):
        _, v = pop(queue)
        numbered[v] = True
        order[i] = v
        if weight[v] <= last:
            generators.append(v)
        last = weight[v]
        while queue and numbered[queue[0][1]]:
            pop(queue)
        heaviest = -queue[0][0] if queue else 0
        bottleneck = {u: -1 for u in adj[v] if not numbered[u]}
        best = bottleneck.get
        first = [(-1, u) for u in bottleneck]
        heap = []
        while first or heap:
            b, u = first.pop() if first else pop(heap)
            if b != bottleneck[u]:
                continue
            through = weight[u] if weight[u] > b else b
            if through >= heaviest:
                continue
            for z in adj[u]:
                if not numbered[z] and through < best(z, heaviest):
                    bottleneck[z] = through
                    push(heap, (through, z))
        for u, b in bottleneck.items():
            if b < weight[u]:
                madj[u].add(v)
                weight[u] += 1
                push(queue, (-weight[u], u))
    return order, madj, generators[::-1]


def assert_mcs_m_matches_the_heap_version(adj):
    order, madj, generators = mcs_m(adj)
    expected = heap_mcs_m([mask_members(mask) for mask in adj])
    assert order == expected[0]
    assert madj == [sum(1 << v for v in later) for later in expected[1]]
    assert generators == expected[2]


@pytest.mark.parametrize("seed", range(10))
def test_mcs_m_matches_the_heap_version(seed):
    rng = random.Random(seed)
    for i in range(300):
        g = gnp(rng.randint(0, 22), rng.uniform(0.05, 0.7),
                10_000 + 300 * seed + i)
        assert_mcs_m_matches_the_heap_version(masks(g))
        if i % 10 == 0:
            chordal = spanned_graph(min_fill_decomposition(g), g.n)
            assert_mcs_m_matches_the_heap_version(masks(chordal))


@pytest.mark.parametrize("seed", range(4))
def test_mcs_m_matches_the_heap_version_across_components(seed):
    # The last vertex numbered in each component, and every isolated
    # vertex, has no unnumbered neighbour; the components interleave by id.
    rng = random.Random(50 + seed)
    for i in range(60):
        n, edges = 0, []
        for _ in range(rng.randint(2, 5)):
            part = gnp(rng.randint(1, 7), rng.uniform(0.1, 0.9),
                       20_000 + 60 * seed + i)
            edges += [(u + n, v + n) for u, v in part.edges()]
            n += part.n
        n += rng.randint(0, 3)
        ids = list(range(n))
        rng.shuffle(ids)
        g = Graph(n, [(ids[u], ids[v]) for u, v in edges])
        assert_mcs_m_matches_the_heap_version(masks(g))
    assert_mcs_m_matches_the_heap_version(masks(Graph(9, [])))


def test_mcs_m_matches_the_heap_version_on_complete_graphs():
    for k in range(13):
        assert_mcs_m_matches_the_heap_version(masks(complete(k)))
        order, madj, generators = mcs_m(masks(complete(k)))
        assert order == list(range(k))[::-1] and generators == []


def test_mcs_m_matches_the_heap_version_on_block_quotients(monkeypatch):
    # The quotients the cutset scan hands to mcs_m on glued instances.
    quotients = []

    def captured(adj):
        quotients.append(list(adj))
        return mcs_m(adj)

    monkeypatch.setattr(decomposition, "mcs_m", captured)
    for seed in range(1, 13):
        g, _ = generate_instance(GeneratorParams(
            seed=seed, ear_count=2 + seed % 3, max_ear_length=8,
            max_blowup=2, max_universal=1, glue_count=6,
            target_class=("cap-even-hole-free",
                          "cap-4hole-odd-signable")[seed % 2]))
        clique_cutset_tree(g)
    assert len(quotients) >= 30
    for adj in quotients:
        assert_mcs_m_matches_the_heap_version(adj)


def filled_graph(g, order):
    """g plus, for each vertex in turn, every edge among its neighbours at
    the moment it is eliminated."""
    adj = [set(g.adj[v]) for v in g.vertices()]
    edges = set(g.edges())
    for v in order:
        edges.update(combinations(sorted(adj[v]), 2))
        set_eliminate(adj, v)
    return Graph(g.n, sorted(edges))


@pytest.mark.parametrize("seed", range(12))
def test_bags_are_the_maximal_cliques_of_the_filled_graph(seed):
    g = gnp(5 + seed % 6, (0.25, 0.4, 0.6)[seed % 3], 700 + seed)
    order = list(g.vertices())
    random.Random(seed).shuffle(order)
    td = decomposition_from_order(g, order)
    assert list(td.bags) == maximal_cliques(filled_graph(g, order))
    td = min_fill_decomposition(g)
    assert td.is_valid(g)
    assert list(td.bags) == maximal_cliques(spanned_graph(td, g.n))


def test_validity_checker_catches_violations():
    g = path(3)
    good = TreeDecomposition(((0, 1), (1, 2)), ((0, 1),))
    assert good.is_valid(g)
    missing_vertex = TreeDecomposition(((0, 1),), ())
    assert not missing_vertex.is_valid(g)
    missing_edge = TreeDecomposition(((0, 1), (2,)), ((0, 1),))
    assert not missing_edge.is_valid(g)
    # vertex 0 sits in bags 0 and 2 but not in the bag between them
    disconnected_subtree = TreeDecomposition(((0, 1), (1, 2), (0, 2)),
                                             ((0, 1), (1, 2)))
    assert not disconnected_subtree.is_valid(g)
    not_a_tree = TreeDecomposition(((0, 1), (1, 2)), ((0, 1), (1, 0)))
    assert not not_a_tree.is_valid(g)


def set_fill_count(adj, v):
    """Pairs of v's neighbours that are not adjacent, on adjacency sets."""
    return sum(1 for a, b in combinations(adj[v], 2) if b not in adj[a])


def set_eliminate(adj, v):
    """Make v's neighbours a clique and isolate v, on adjacency sets."""
    for a, b in combinations(adj[v], 2):
        adj[a].add(b)
        adj[b].add(a)
    for a in adj[v]:
        adj[a].discard(v)
    adj[v].clear()


def scanned_min_fill_order(g):
    """Min-fill by a scan of every live vertex's key at every step, on
    adjacency sets: the reference the heap-driven _min_fill_order, which
    plays on masks, must reproduce."""
    adj = [set(g.adj[v]) for v in g.vertices()]
    alive = set(g.vertices())
    order = []
    while alive:
        best = min(alive,
                   key=lambda v: (set_fill_count(adj, v), len(adj[v]), v))
        order.append(best)
        set_eliminate(adj, best)
        alive.discard(best)
    return order


def min_fill_corpus(seed):
    """30 G(n, p) graphs, n from 1 to 40 and p from 0.05 to 0.7."""
    rng = random.Random(seed)
    return [gnp(rng.randint(1, 40), rng.uniform(0.05, 0.7),
                seed * 100 + i) for i in range(30)]


@pytest.mark.parametrize("seed", range(10))
def test_min_fill_order_matches_the_full_scan(seed):
    named = [hole(5), hole(8), hole(31), path(1), path(12), cube(),
             subdivided_grid(4, 2)]
    for g in min_fill_corpus(seed) + (named if seed == 0 else []):
        order = scanned_min_fill_order(g)
        assert _min_fill_order(g)[0] == order
        td = min_fill_decomposition(g)
        assert td == decomposition_from_order(g, order)
        assert td.is_valid(g)


def sorted_nice_nodes(td):
    """(nodes, root) of the nice form built with a set per node and a sort
    per bag: the reference for nice_decomposition's sorted-list bags."""
    if not td.bags:
        return [("leaf", (), None, ())], 0
    nbrs = [[] for _ in td.bags]
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    nodes = []

    def emit(kind, bag, vertex=None, children=()):
        nodes.append((kind, tuple(sorted(set(bag))), vertex, tuple(children)))
        return len(nodes) - 1

    def chain_up(idx, have, want):
        bag = set(have)
        for v in sorted(set(have) - set(want), reverse=True):
            bag.discard(v)
            idx = emit("forget", bag, v, (idx,))
        for v in sorted(set(want) - set(have)):
            bag.add(v)
            idx = emit("introduce", bag, v, (idx,))
        return idx

    def finish(b, kid_idx):
        if not kid_idx:
            return chain_up(emit("leaf", ()), (), td.bags[b])
        while len(kid_idx) > 1:
            left, right = kid_idx.pop(0), kid_idx.pop(0)
            kid_idx.insert(0, emit("join", td.bags[b], None, (left, right)))
        return kid_idx[0]

    kids = [[] for _ in td.bags]
    stack = [(0, -1, iter(nbrs[0]))]
    while stack:
        b, parent, pending = stack[-1]
        for c in pending:
            if c != parent:
                stack.append((c, b, iter(nbrs[c])))
                break
        else:
            stack.pop()
            top = finish(b, kids[b])
            if parent >= 0:
                kids[parent].append(chain_up(top, td.bags[b],
                                             td.bags[parent]))
    return nodes, chain_up(top, td.bags[0], ())


def nice_fields(nd):
    return [(n.kind, n.bag, n.vertex, n.children) for n in nd.nodes], nd.root


@pytest.mark.parametrize("seed", range(10))
def test_nice_form_matches_the_sorting_builder(seed):
    for g in min_fill_corpus(seed):
        td = min_fill_decomposition(g)
        nd = nice_decomposition(td)
        assert nice_fields(nd) == sorted_nice_nodes(td)


def test_long_nice_form_matches_the_sorting_builder():
    td = long_path_decomposition()
    nd = nice_decomposition(td)
    assert nice_fields(nd) == sorted_nice_nodes(td)


def assert_atoms_take_the_two_step_route(g):
    """Every structured atom's nice form, built by min_fill_nice in one
    pass, equals nice_decomposition(min_fill_decomposition(quotient)).
    Returns the number of structured atoms."""
    structured = [atom for atom in decompose(g)[1] if not atom.complete]
    for atom in structured:
        assert atom.nice == nice_decomposition(
            min_fill_decomposition(atom.extracted.quotient))
    return len(structured)


@pytest.mark.parametrize("universal", [0, 1])
@pytest.mark.parametrize("blowup", [1, 2])
@pytest.mark.parametrize("target", ["cap-even-hole-free",
                                    "cap-4hole-odd-signable"])
def test_atom_nice_matches_the_two_step_route(target, blowup, universal):
    assert all(assert_atoms_take_the_two_step_route(generate_instance(
        GeneratorParams(seed=seed, ear_count=3, max_blowup=blowup,
                        max_universal=universal, glue_count=3,
                        target_class=target))[0]) for seed in range(4))


@pytest.mark.parametrize("seed", range(3))
def test_atom_nice_matches_the_two_step_route_on_gnp(seed):
    assert sum(map(assert_atoms_take_the_two_step_route,
                   min_fill_corpus(40 + seed))) >= 10


def test_atom_nice_matches_the_two_step_route_on_a_long_hole():
    assert assert_atoms_take_the_two_step_route(hole(501)) == 1


def test_bad_elimination_orders_are_rejected():
    for order in ([0, 1], [0, 1, 5], [0, 1, 2, 2]):
        with pytest.raises(ValueError):
            decomposition_from_order(path(3), order)


def test_exact_search_spends_a_pinned_number_of_nodes():
    # 58 search nodes settle the subdivided 4x4 grid at width 5; a change
    # to the branch order or the memo moves that count.
    g = subdivided_grid(4, 2)
    td = decomposition_from_order(g, _exact_order(g, 5, 58))
    assert td.width <= 5
    with pytest.raises(SearchBudgetExceeded):
        _exact_order(g, 5, 57)


def test_exact_search_eliminates_a_simplicial_vertex_without_branching():
    # The pendant vertex 8 is simplicial of degree 1, so the first search
    # node tries it alone.
    g = Graph(9, cube().edges() + [(0, 8)])
    order = _exact_order(g, 5, 100)
    assert order[:2] == [8, 0] and sorted(order) == list(range(9))
    assert decomposition_from_order(g, order).width <= 5


def test_skeleton_decomposition_falls_back_to_the_exact_search(monkeypatch):
    g = cube()
    monkeypatch.setattr(
        treewidth, "min_fill_decomposition",
        lambda f: TreeDecomposition((tuple(f.vertices()),), ()))
    td = skeleton_tree_decomposition(g)
    assert isinstance(td, TreeDecomposition)
    assert td.is_valid(g) and td.width == 3


def listed_is_valid(td, g):
    """The validity check that scans every bag for each edge and each
    vertex: the reference for TreeDecomposition.is_valid's verdicts."""
    k = len(td.bags)
    if k == 0:
        return g.n == 0
    if len(td.edges) != k - 1:
        return False
    nbrs = [[] for _ in range(k)]
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k):
            return False
        nbrs[a].append(b)
        nbrs[b].append(a)
    if len(reachable(nbrs, 0, range(k))) != k:
        return False
    bag_sets = [set(b) for b in td.bags]
    if set().union(*bag_sets) != set(g.vertices()):
        return False
    if not all(any(u in b and v in b for b in bag_sets)
               for u, v in g.edges()):
        return False
    for v in g.vertices():
        holding = {i for i in range(k) if v in bag_sets[i]}
        if reachable(nbrs, min(holding), holding) != holding:
            return False
    return True


def set_is_valid(td, g):
    """The set-based validity check that the mask version replaced: bag
    sets, each edge looked for in its first end's bags, each vertex's
    subtree walked through the bags that hold it."""
    k = len(td.bags)
    if k == 0:
        return g.n == 0
    if len(td.edges) != k - 1:
        return False
    nbrs = [[] for _ in range(k)]
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k):
            return False
        nbrs[a].append(b)
        nbrs[b].append(a)
    if len(reachable(nbrs, 0, range(k))) != k:
        return False
    bag_sets = [set(b) for b in td.bags]
    holding = [[] for _ in g.vertices()]
    for i, bag in enumerate(bag_sets):
        for v in bag:
            if not 0 <= v < g.n:
                return False
            holding[v].append(i)
    if not all(holding):
        return False
    for u, v in g.edges():
        if not any(v in bag_sets[i] for i in holding[u]):
            return False
    return all(reachable(nbrs, hold[0], hold) == set(hold)
               for hold in holding)


def reachable(nbrs, start, allowed):
    allowed = set(allowed)
    seen, stack = {start}, [start]
    while stack:
        for y in nbrs[stack.pop()]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def broken_decompositions(td, g, rng):
    """(failure mode, td with that one fault) for each mode td admits."""
    k = len(td.bags)

    def rebag(f):
        return TreeDecomposition(tuple(tuple(f(i, b)) for i, b in
                                       enumerate(td.bags)), td.edges)

    v = rng.randrange(g.n)
    yield "dropped vertex", rebag(lambda i, b: [x for x in b if x != v])
    if g.m:
        u, w = rng.choice(g.edges())
        yield "uncovered edge", rebag(
            lambda i, b: [x for x in b if x != w or u not in b])
    nbrs = [set() for _ in range(k)]
    for a, b in td.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    holding = {i for i, b in enumerate(td.bags) if v in b}
    apart = [i for i in range(k) if i not in holding and not nbrs[i] & holding]
    if apart:
        far = rng.choice(apart)
        yield "disconnected subtree", rebag(
            lambda i, b: sorted({*b, v}) if i == far else b)
    yield "out-of-range vertex", rebag(
        lambda i, b: [*b, g.n] if i == k - 1 else b)
    a, b = rng.randrange(k), rng.randrange(k)
    yield "extra tree edge", TreeDecomposition(td.bags, td.edges + ((a, b),))
    if td.edges:
        cut = rng.randrange(len(td.edges))
        rest = td.edges[:cut] + td.edges[cut + 1:]
        yield "missing tree edge", TreeDecomposition(td.bags, rest)
        yield "cycle in place of a tree edge", TreeDecomposition(
            td.bags, rest + ((a, b),))
        yield "out-of-range edge endpoint", TreeDecomposition(
            td.bags, rest + ((td.edges[cut][0], k),))


@pytest.mark.parametrize("seed", range(8))
def test_validity_verdicts_match_the_bag_scan(seed):
    rng = random.Random(seed)
    modes = set()
    for i in range(40):
        g = gnp(rng.randint(1, 14), rng.uniform(0.1, 0.6), 900 + 40 * seed + i)
        td = min_fill_decomposition(g)
        assert listed_is_valid(td, g) and td.is_valid(g)
        assert set_is_valid(td, g)
        for mode, broken in broken_decompositions(td, g, rng):
            modes.add(mode)
            assert broken.is_valid(g) == listed_is_valid(broken, g), mode
            assert broken.is_valid(g) == set_is_valid(broken, g), mode
            if mode != "cycle in place of a tree edge":
                assert not broken.is_valid(g), mode
    assert len(modes) == 8


@pytest.mark.parametrize("seed", range(4))
def test_validity_verdicts_match_the_set_checker_on_random_bags(seed):
    # Random trees (some with an edge too many or too few) over random
    # bags, some holding a repeated or an out-of-range vertex.
    rng = random.Random(seed)
    verdicts = set()
    for i in range(500):
        g = gnp(rng.randint(0, 7), rng.uniform(0.1, 0.6), 5000 + 500 * seed + i)
        k = rng.randint(0, 6)
        bags = tuple(tuple(rng.sample(range(-1, g.n + 1), rng.randint(0, g.n))
                           if rng.random() < 0.1 else
                           sorted(rng.sample(range(g.n),
                                             rng.randint(0, g.n))) * (
                               1 + (rng.random() < 0.05)))
                     for _ in range(k))
        edges = tuple((rng.randrange(j), j) for j in range(1, k))
        if k and rng.random() < 0.1:
            edges += ((rng.randrange(k), rng.randrange(k)),)
        td = TreeDecomposition(bags, edges)
        verdicts.add(td.is_valid(g))
        assert td.is_valid(g) == set_is_valid(td, g)
    assert verdicts == {True, False}
