"""Immutable simple graphs, the text file format, and named constructions.

Vertices are dense 0-based integers internally; the text format is 1-based
(DIMACS convention).  Weights are signed 64-bit integers internally (the
stable-set machinery reweights below zero), but files only accept
nonnegative values.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .rng import Xoshiro256StarStar


class GraphFormatError(ValueError):
    """Malformed graph file.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Simple undirected graph with optional integer vertex weights.

    Instances are immutable after construction and safe to share across
    threads.  Adjacency lists are sorted; loops and parallel edges are
    rejected.
    """

    __slots__ = ("n", "adj", "_masks", "_weights", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 weights: Optional[Sequence[int]] = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            m += 1
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != n:
                raise ValueError("weights length must equal vertex count")
        self._fill(masks, m, weights)

    @classmethod
    def _from_masks(cls, masks: list[int],
                    weights: Optional[tuple[int, ...]]) -> "Graph":
        """The graph with these neighbour masks, trusted as they are: for
        masks cut out of a valid graph, with weights already checked."""
        g = cls.__new__(cls)
        g._fill(masks, sum(mask.bit_count() for mask in masks) // 2, weights)
        return g

    def _fill(self, masks: list[int], m: int,
              weights: Optional[tuple[int, ...]]) -> None:
        object.__setattr__(self, "n", len(masks))
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "adj", tuple(
            tuple(mask_members(mask)) for mask in masks))
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        """Pickles and copies rebuild through _from_masks, not through
        the __setattr__ that Graph forbids."""
        return Graph._from_masks, (list(self._masks), self._weights)

    @property
    def m(self) -> int:
        return self._m

    @property
    def weights(self) -> tuple[int, ...]:
        """Per-vertex weights; all ones when none were given."""
        if self._weights is None:
            return (1,) * self.n
        return self._weights

    def has_weights(self) -> bool:
        return self._weights is not None

    def weight(self, v: int) -> int:
        return 1 if self._weights is None else self._weights[v]

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def mask(self, v: int) -> int:
        """Neighbor set of v as a bitmask."""
        return self._masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    def is_clique(self, vs: Iterable[int]) -> bool:
        """Distinct members, each of whose closed neighbour mask holds the
        members' mask."""
        vs = list(vs)
        members = mask_of(vs)
        return members.bit_count() == len(vs) and all(
            (self._masks[v] | 1 << v) & members == members for v in vs)

    def is_stable(self, vs: Iterable[int]) -> bool:
        """No member's neighbour mask meets the members' mask."""
        vs = list(vs)
        members = mask_of(vs)
        return not any(self._masks[v] & members for v in vs)

    def with_weights(self, weights: Sequence[int]) -> "Graph":
        return Graph(self.n, self.edges(), weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self._masks == other._masks
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((self.n, self._masks, self.weights))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def mask_members(mask: int) -> list[int]:
    """The vertices of a bitmask, in increasing order."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def mask_of(vs: Iterable[int]) -> int:
    """The bitmask of the vertices vs."""
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """The mask of the vertices joined to the start mask through allowed
    vertices, start included, for neighbour masks adj.  Each round ORs
    the masks of the whole frontier, bit by bit."""
    side = spread = start
    allowed &= ~start
    while spread:
        step = 0
        while spread:
            low = spread & -spread
            step |= adj[low.bit_length() - 1]
            spread ^= low
        spread = step & allowed
        allowed ^= spread
        side |= spread
    return side


def vertex_set(vs: Iterable[int]) -> tuple[int, ...]:
    """Canonical vertex set: sorted, duplicate-free tuple."""
    return tuple(sorted(set(vs)))


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Format: comment lines start with "c "; one header "p <n> <m>";
    then m lines "e <u> <v>" with 1 <= u < v <= n, and optional lines
    "w <v> <weight>" with a nonnegative integer weight (default 1).
    """
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    weights: Optional[list[int]] = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("c ") or raw == "c" or raw == "":
            continue
        fields = raw.split(" ")
        kind = fields[0]
        if kind == "p":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate header")
            if len(fields) != 3:
                raise GraphFormatError(lineno, "header must be 'p <n> <m>'")
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(lineno, "header counts must be integers")
            if n < 0 or declared_m < 0:
                raise GraphFormatError(lineno, "header counts must be nonnegative")
        elif kind == "e":
            if n is None:
                raise GraphFormatError(lineno, "edge before header")
            if len(fields) != 3:
                raise GraphFormatError(lineno, "edge must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(lineno, "edge endpoints must be integers")
            if u == v:
                raise GraphFormatError(lineno, f"loop at vertex {u}")
            if not (1 <= u < v <= n):
                raise GraphFormatError(
                    lineno, f"edge ({u},{v}) must satisfy 1 <= u < v <= {n}")
            if (u, v) in seen:
                raise GraphFormatError(lineno, f"duplicate edge ({u},{v})")
            seen.add((u, v))
            edges.append((u - 1, v - 1))
        elif kind == "w":
            if n is None:
                raise GraphFormatError(lineno, "weight before header")
            if len(fields) != 3:
                raise GraphFormatError(lineno, "weight must be 'w <v> <weight>'")
            try:
                v, w = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(lineno, "weight fields must be integers")
            if not (1 <= v <= n):
                raise GraphFormatError(lineno, f"vertex {v} out of range")
            if w < 0:
                raise GraphFormatError(lineno, "file weights must be nonnegative")
            if weights is None:
                weights = [1] * n
            weights[v - 1] = w
        else:
            raise GraphFormatError(lineno, f"unknown line kind {kind!r}")
    if n is None:
        raise GraphFormatError(1, "missing header")
    if len(edges) != declared_m:
        raise GraphFormatError(
            1, f"header declares {declared_m} edges, found {len(edges)}")
    return Graph(n, edges, weights)


def serialize_graph(g: Graph) -> str:
    """Canonical text form: header, sorted edge lines, non-default weights."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    if g.has_weights():
        lines.extend(f"w {v + 1} {g.weight(v)}" for v in g.vertices()
                     if g.weight(v) != 1)
    return "\n".join(lines) + "\n"


def hole(k: int) -> Graph:
    """Chordless cycle on k >= 3 vertices."""
    if k < 3:
        raise ValueError("hole needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cube() -> Graph:
    """K4,4 minus a perfect matching (the 3-dimensional cube)."""
    return Graph(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])


def hajos() -> Graph:
    """5-hole v1..v5 plus v6 adjacent to {v1,v2,v3} and v7 to {v1,v4,v5}."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 0), (5, 1), (5, 2),
             (6, 0), (6, 3), (6, 4)]
    return Graph(7, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical seed gives an identical graph."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    rng = Xoshiro256StarStar(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.unit() < p]
    return Graph(n, edges)


_NAMED = {"cube": cube, "hajos": hajos}


def construct_named(name: str, *args) -> Graph:
    """Build one of the named graphs: hole k, complete n, path k, cube,
    hajos, gnp n p seed."""
    if name == "hole":
        return hole(int(args[0]))
    if name == "complete":
        return complete(int(args[0]))
    if name == "path":
        return path(int(args[0]))
    if name == "gnp":
        return gnp(int(args[0]), float(args[1]), int(args[2]))
    if name in _NAMED:
        return _NAMED[name]()
    raise ValueError(f"unknown construction {name!r}")


def blow_up(g: Graph, sizes: Sequence[int]) -> Graph:
    """Substitute a clique of the given size for every vertex.

    Blocks are contiguous in input vertex order, so vertex v of g becomes
    ids [offset[v], offset[v] + sizes[v]).
    """
    if len(sizes) != g.n:
        raise ValueError("sizes length must equal vertex count")
    if any(s < 1 for s in sizes):
        raise ValueError("blow-up sizes must be positive")
    offsets = [0] * g.n
    total = 0
    for v in g.vertices():
        offsets[v] = total
        total += sizes[v]
    edges = []
    for v in g.vertices():
        block = range(offsets[v], offsets[v] + sizes[v])
        edges.extend((a, b) for i, a in enumerate(block)
                     for b in list(block)[i + 1:])
        for u in g.adj[v]:
            if u > v:
                edges.extend((a, b) for a in block
                             for b in range(offsets[u], offsets[u] + sizes[u]))
    return Graph(total, edges)


def add_universal_clique(g: Graph, t: int) -> Graph:
    """Append t pairwise-adjacent vertices adjacent to all of g."""
    if t < 0:
        raise ValueError("clique size must be nonnegative")
    edges = g.edges()
    for i in range(t):
        new = g.n + i
        edges.extend((v, new) for v in range(new))
    return Graph(g.n + t, edges)


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on vs, relabelled 0..|vs|-1 preserving order.

    Returns the subgraph and the tuple mapping new ids to old ids.
    Weights are carried over.  Each kept vertex's mask is cut down to vs
    and renumbered, so a vertex costs its degree inside vs, not in g.
    """
    keep = vertex_set(vs)
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError("vertex id out of range")
    inside = mask_of(keep)
    index = {old: new for new, old in enumerate(keep)}
    masks = []
    for u in keep:
        mask = 0
        for v in mask_members(g.mask(u) & inside):
            mask |= 1 << index[v]
        masks.append(mask)
    weights = tuple(g.weight(v) for v in keep) if g.has_weights() else None
    return Graph._from_masks(masks, weights), keep
