"""Tree decompositions: min-fill decompositions of skeletons, MCS-M and
chordality, and nice form for dynamic programming.  From the package the
module imports graphs and oracles alone; the ear triangulation lives in
construct, beside the good-ear check, and lifting to atoms in twins.

Every tree decomposition comes from the greedy min-fill elimination
game, whose width bounds the treewidth from above: triangle-free
odd-signable skeletons have treewidth at most 5, and on the generated
skeletons of the class min-fill stays within that.  Every
triangulation plays the one elimination game in _eliminate, on integer
neighbour masks: decomposition_from_order plays it for a given order,
and min-fill records each move's neighbourhood while it picks the
order.  min_fill_nice, behind every atom's DP, goes from that record to
the nice form in one pass: the clique tree's bag masks pass _valid_bags,
the check is_valid runs too, and the nice form is emitted from the
sorted bags as they are.  One MCS-M pass (mcs_m), also on neighbour
masks, gives the minimal triangulation behind the clique-cutset scan and
decides chordality and the clique number of chordal graphs.  It keeps
the unnumbered vertices in a list of masks indexed by weight, under a
top pointer that marks the heaviest level, so each step picks its vertex
without a sort, and grows one reach mask level by level in ascending
weight."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, mask_members, mask_of, reach, vertex_set
from .oracles import find_forbidden_induced


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def is_valid(self, g: Graph) -> bool:
        """_valid_bags, once every bag vertex is a vertex of g."""
        return (all(0 <= v < g.n for bag in self.bags for v in bag)
                and _valid_bags(g, [mask_of(bag) for bag in self.bags],
                                self.bags, self.edges))


def _valid_bags(g: Graph, bags: list[int], members: Sequence[Sequence[int]],
                edges: Sequence[tuple[int, int]]) -> bool:
    """The bag masks, with their vertex lists, and these tree edges form a
    tree decomposition of g: the bag graph is a tree, the bags cover every
    vertex and every edge, and the bags holding v are connected: as a
    forest in the tree they have one more bag than tree edges, at least
    one more once v is covered, so exactly one more for every v when the
    bag sizes less the shared parts of the tree edges sum to n."""
    k = len(bags)
    if k == 0:
        return g.n == 0
    if len(edges) != k - 1:
        return False
    nbrs = [0] * k
    for a, b in edges:
        if not (0 <= a < k and 0 <= b < k):
            return False
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    # around[v]: the union of the bags holding v.
    around = [0] * g.n
    covered = pieces = 0
    for mask, vs in zip(bags, members):
        covered |= mask
        pieces += mask.bit_count()
        for v in vs:
            around[v] |= mask
    for a, b in edges:
        pieces -= (bags[a] & bags[b]).bit_count()
    return (reach(nbrs, 1, (1 << k) - 1) == (1 << k) - 1
            and covered == (1 << g.n) - 1 and pieces == g.n
            and not any(g.mask(v) & ~around[v] for v in g.vertices()))


def _min_fill_order(g: Graph) -> tuple[list[int], list[int]]:
    """Greedy min-fill: eliminate the live vertex least by (fill count,
    degree, id), the int (fill * N + degree) * N + v with N = n + 1, and
    record each move's madj(v), the mask of v's neighbours when it goes.
    Keys wait in a heap and stale entries are skipped; the ids make the
    key a total order, so the least live key is the one a scan of every
    live vertex would pick.  A move changes the degree of v's former
    neighbours only, and the fill count of a vertex only when a fill edge
    joins two of its neighbours, so those two sets get a fresh key, pushed
    only when it changed; below degree 3 the fill count takes at most one
    adjacency test."""
    size = g.n + 1
    adj = [g.mask(v) for v in g.vertices()]
    key = [-1] * g.n
    heap: list[int] = []
    order = []
    madj = []
    fresh: Iterable[int] = g.vertices()
    while True:
        for u in fresh:
            nbrs = adj[u]
            degree = nbrs.bit_count()
            fill = 0
            if degree > 2:
                fill = _fill_count(adj, u)
            elif degree == 2:
                fill = 0 if adj[(nbrs & -nbrs).bit_length() - 1] & nbrs else 1
            entry = (fill * size + degree) * size + u
            if entry != key[u]:
                key[u] = entry
                heappush(heap, entry)
        while heap:
            v = (entry := heappop(heap)) % size
            if entry == key[v]:
                break
        else:
            return order, madj
        order.append(v)
        key[v] = -1
        nbrs = adj[v]
        madj.append(nbrs)
        touched = nbrs
        for a, old in _eliminate(adj, v):
            # a's fill partners, and the common neighbours of each pair.
            new = nbrs & ~old ^ 1 << a
            while new:
                low = new & -new
                touched |= adj[a] & adj[low.bit_length() - 1]
                new ^= low
        fresh = mask_members(touched)


def _fill_count(adj: list[int], v: int) -> int:
    """Fill edges that eliminating v would add: each neighbour a misses
    the neighbours of v outside a's closed neighbourhood, and every
    missing pair is seen from both ends."""
    nbrs = m = adj[v]
    missing = 0
    while m:
        low = m & -m
        missing += (nbrs & ~adj[low.bit_length() - 1]).bit_count()
        m ^= low
    return (missing - nbrs.bit_count()) // 2


def _eliminate(adj: list[int], v: int) -> list[tuple[int, int]]:
    """One move of the elimination game on neighbour masks: make v's
    neighbours a clique and isolate v.  Returns each former neighbour,
    in increasing order, with the mask it had before the move."""
    nbrs = rest = adj[v]
    saved = []
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        old = adj[a]
        saved.append((a, old))
        # old holds v but not a, nbrs holds a but not v.
        adj[a] = (old | nbrs) ^ (low | 1 << v)
        rest ^= low
    adj[v] = 0
    return saved


def mcs_m(adj: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """MCS-M (Berry, Blair, Heggernes & Peyton, Algorithmica 39, 2004): a
    minimal elimination ordering of the graph with neighbour masks adj.

    Returns (order, madj, generators).  madj[v] is the mask of v's later
    neighbourhood in the minimal triangulation H; generators lists, in
    elimination order, the vertices whose madj is a minimal separator of H
    (Berry, Pogorelcnik & Simonet, Algorithms 3, 2010).  Vertices are
    numbered from n down to 1, each time the unnumbered vertex of largest
    weight (least id on ties); its weight at that moment is the size of
    madj[v].

    After numbering v, an unnumbered u of weight w gains 1 when a path
    joins it to v through unnumbered vertices lighter than w.  One reach
    mask grows from v's unnumbered neighbours, level by level in ascending
    weight: at level w it holds every vertex joined to v through vertices
    lighter than w, so its members of weight w gain, and then it spreads
    through them and every vertex of weight at most w that it meets.  A v
    with no unnumbered neighbour makes no one gain.

    The unnumbered vertices of weight w are the mask level[w], a list
    indexed by weight.  top is the largest weight whose level may be
    nonempty: a pick only lowers it, past the levels it finds empty, and a
    gain at top raises it by one."""
    n = len(adj)
    madj = [0] * n
    order = [0] * n
    generators = []
    unnumbered = (1 << n) - 1
    # level[w]: the mask of the unnumbered vertices of weight w < n.
    level = [0] * (n + 1)
    level[0] = unnumbered
    top = 0
    last = -1
    for i in range(n - 1, -1, -1):
        while not level[top]:
            top -= 1
        members = level[top]
        bit = members & -members
        v = bit.bit_length() - 1
        level[top] = members ^ bit
        unnumbered ^= bit
        order[i] = v
        if top <= last:
            generators.append(v)
        last = top
        reach = adj[v] & unnumbered
        if not reach:
            continue
        lighter = 0
        gains = []
        for w in range(top + 1):
            members = level[w]
            gain = reach & members
            if gain:
                gains.append((w, gain))
            lighter |= members
            spread = gain
            while spread:
                step = 0
                while spread:
                    low = spread & -spread
                    step |= adj[low.bit_length() - 1]
                    spread ^= low
                spread = step & unnumbered & ~reach
                reach |= spread
                spread &= lighter
        for w, gain in gains:
            level[w] ^= gain
            level[w + 1] |= gain
            while gain:
                low = gain & -gain
                madj[low.bit_length() - 1] |= bit
                gain ^= low
        if level[top + 1]:
            top += 1
    return order, madj, generators[::-1]


def is_chordal(adj: Sequence[int]) -> bool:
    """MCS-M on the neighbour masks adj adds no fill edge."""
    madj = mcs_m(adj)[1]
    return (sum(later.bit_count() for later in madj) * 2
            == sum(mask.bit_count() for mask in adj))


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Clique tree of the triangulation that the elimination game on order
    builds; order must be a permutation of g's vertices."""
    if sorted(order) != list(g.vertices()):
        raise ValueError("order is not a permutation of the vertices")
    adj = [g.mask(v) for v in g.vertices()]
    madj = []
    for v in order:
        madj.append(adj[v])
        _eliminate(adj, v)
    return _clique_tree(g, order, madj)


def _clique_tree(g: Graph, order: list[int], madj: list[int]
                 ) -> TreeDecomposition:
    """Clique tree read off an elimination game: eliminating v made
    madj(v), its neighbours at that moment, a clique.  In reverse order, v
    joins the bag of p, the first-eliminated vertex of madj(v), when that
    bag is exactly madj(v), and otherwise opens the bag madj(v) + v joined
    to p's bag (to bag 0 when madj(v) is empty).  bag_of[u] is the first
    bag to hold u, so p's bag, which holds madj(v), is the last bag_of of
    its vertices.  Bags and edges are listed in sorted order."""
    bag_of = [0] * g.n
    bags: list[int] = []
    edges = []
    for v, later in zip(reversed(order), reversed(madj)):
        if later:
            b, rest = 0, later
            while rest:
                low = rest & -rest
                if bag_of[low.bit_length() - 1] > b:
                    b = bag_of[low.bit_length() - 1]
                rest ^= low
            # madj(v) lies inside p's bag, so equal sizes mean equal sets.
            if bags[b].bit_count() == later.bit_count():
                bags[b] |= 1 << v
                bag_of[v] = b
                continue
            edges.append((b, len(bags)))
        elif bags:
            edges.append((0, len(bags)))
        bag_of[v] = len(bags)
        bags.append(later | 1 << v)
    listed = [tuple(mask_members(bag)) for bag in bags]
    assert _valid_bags(g, bags, listed, edges)
    ranked = sorted(range(len(bags)), key=listed.__getitem__)
    rank = {b: r for r, b in enumerate(ranked)}
    return TreeDecomposition(
        tuple(listed[b] for b in ranked),
        tuple(sorted((rank[a], rank[b]) if rank[a] < rank[b]
                     else (rank[b], rank[a]) for a, b in edges)))


def min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from the greedy min-fill elimination order, its
    bags read off the one game that picked the order."""
    return _clique_tree(g, *_min_fill_order(g))


def min_fill_nice(g: Graph) -> NiceDecomposition:
    """nice_decomposition(min_fill_decomposition(g)), bags not re-sorted."""
    return _nice_form(_clique_tree(g, *_min_fill_order(g)))


def skeleton_tree_decomposition(f: Graph) -> TreeDecomposition:
    """min_fill_decomposition(f) of a triangle-free graph f, at whatever
    width min-fill reaches.  Triangle-free odd-signable graphs have
    treewidth at most 5, and min-fill stays within that on the generated
    skeletons of the class; a width above 5 proves nothing, since
    min-fill only bounds the treewidth from above.

    Raises ValueError if f has a triangle.
    """
    if find_forbidden_induced(f, "triangle") is not None:
        raise ValueError("input has a triangle")
    return min_fill_decomposition(f)


def chordal_clique_number(g: Graph) -> int:
    """omega of a chordal graph: 1 + the largest weight MCS-M picks."""
    madj = mcs_m([g.mask(v) for v in g.vertices()])[1]
    return max((later.bit_count() + 1 for later in madj), default=0)


class NiceNode(NamedTuple):
    kind: str                     # leaf | introduce | forget | join
    bag: tuple[int, ...]
    vertex: Optional[int]         # introduced/forgotten vertex
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceDecomposition:
    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max((len(n.bag) for n in self.nodes), default=0) - 1

    def as_tree_decomposition(self) -> TreeDecomposition:
        bags = tuple(n.bag for n in self.nodes)
        edges = tuple((i, c) for i, n in enumerate(self.nodes)
                      for c in n.children)
        return TreeDecomposition(bags, edges)


def nice_decomposition(td: TreeDecomposition) -> NiceDecomposition:
    """Rooted nice form: every node is a leaf, introduce, forget or join;
    width is preserved and the root bag is empty (see _nice_form)."""
    return _nice_form(TreeDecomposition(tuple(map(vertex_set, td.bags)),
                                        td.edges))


def _nice_form(td: TreeDecomposition) -> NiceDecomposition:
    """Nice form of a tree decomposition with sorted bags, rooted at an
    empty bag above bag 0.  Depth-first, each bag's children are finished
    in neighbour order and joined left to right.  Between a bag and its
    parent's, the vertices only in the bag are forgotten largest first,
    then those only in the parent's introduced smallest first."""
    bags = td.bags or ((),)
    nbrs: list[list[int]] = [[] for _ in bags]
    for a, b in td.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    nodes: list[tuple] = []
    emit = nodes.append

    def chain_up(idx: int, bag: tuple[int, ...], want: tuple[int, ...]) -> int:
        # Every vertex of want before want[i] is in bag when want[i] goes in.
        for i in range(len(bag) - 1, -1, -1):
            v = bag[i]
            if v not in want:
                bag = bag[:i] + bag[i + 1:]
                emit(("forget", bag, v, (idx,)))
                idx = len(nodes) - 1
        for i, v in enumerate(want):
            if v not in bag:
                bag = bag[:i] + (v,) + bag[i:]
                emit(("introduce", bag, v, (idx,)))
                idx = len(nodes) - 1
        return idx

    kids: list[list[int]] = [[] for _ in bags]
    stack = [(0, -1, iter(nbrs[0]))]
    while stack:
        b, parent, pending = stack[-1]
        for c in pending:
            if c != parent:
                stack.append((c, b, iter(nbrs[c])))
                break
        else:
            stack.pop()
            below = kids[b]
            if below:
                top = below[0]
                for right in below[1:]:
                    emit(("join", bags[b], None, (top, right)))
                    top = len(nodes) - 1
            else:
                emit(("leaf", (), None, ()))
                top = chain_up(len(nodes) - 1, (), bags[b])
            if parent >= 0:
                kids[parent].append(chain_up(top, bags[b], bags[parent]))
    top = chain_up(top, bags[0], ())
    # tuple.__new__ makes each NiceNode with no Python-level call; listing
    # them first sizes the tuple once instead of growing it from map.
    return NiceDecomposition(
        tuple([*map(tuple.__new__, repeat(NiceNode), nodes)]), top)
