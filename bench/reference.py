"""Reference computations and answer checks, written apart from capfree.

Nothing here imports the library.  Graphs are read from the p/e/w text the
benchmark hands to the library, into plain bitmask adjacency, and every
check is an explicit comparison that raises `CheckFailed` (never an
`assert`, so the checks also run under `python -O`).
"""

from __future__ import annotations

from dataclasses import dataclass


class CheckFailed(Exception):
    """An answer of the library disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class RefGraph:
    """Adjacency bitmasks and weights, parsed from the graph text."""
    n: int
    adj: tuple[int, ...]
    weights: tuple[int, ...]

    @classmethod
    def from_text(cls, text: str) -> "RefGraph":
        n = 0
        adj: list[int] = []
        weights: list[int] = []
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0] == "c":
                continue
            if fields[0] == "p":
                n = int(fields[1])
                adj = [0] * n
                weights = [1] * n
            elif fields[0] == "e":
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            elif fields[0] == "w":
                weights[int(fields[1]) - 1] = int(fields[2])
        return cls(n, tuple(adj), tuple(weights))

    def edges(self):
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield u, v
                rest >>= 1
                v += 1


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vs) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


# --- properties every answer must have ----------------------------------

def check_vertex_ids(g: RefGraph, vs, what: str) -> None:
    vs = list(vs)
    require(all(isinstance(v, int) and 0 <= v < g.n for v in vs),
            f"{what}: vertex id out of range")
    require(len(set(vs)) == len(vs), f"{what}: repeated vertex")


def check_clique(g: RefGraph, vs, what: str) -> None:
    check_vertex_ids(g, vs, what)
    vs = list(vs)
    for i, u in enumerate(vs):
        later = mask_of(vs[i + 1:])
        require(g.adj[u] & later == later,
                f"{what}: {u} misses a clique neighbour")


def check_stable(g: RefGraph, vs, what: str) -> None:
    check_vertex_ids(g, vs, what)
    mask = mask_of(vs)
    for u in vs:
        require(not g.adj[u] & mask,
                f"{what}: stable set holds an edge at {u}")


def check_coloring(g: RefGraph, colors, q: int, what: str) -> None:
    require(len(colors) == g.n, f"{what}: coloring has {len(colors)} entries "
            f"for {g.n} vertices")
    require(all(1 <= c <= q for c in colors),
            f"{what}: a color lies outside 1..{q}")
    for u, v in g.edges():
        require(colors[u] != colors[v], f"{what}: edge {u}-{v} is monochrome")


def check_even_hole(g: RefGraph, cycle, what: str) -> None:
    """cycle lists the vertices of an induced even cycle of length >= 4, in
    cycle order."""
    check_vertex_ids(g, cycle, what)
    k = len(cycle)
    require(k >= 4 and k % 2 == 0, f"{what}: length {k} is not even >= 4")
    on = mask_of(cycle)
    for i, v in enumerate(cycle):
        ring = mask_of((cycle[i - 1], cycle[(i + 1) % k]))
        require(g.adj[v] & on == ring, f"{what}: {v} is not a hole vertex")


def check_three_halves(omega: int, chi: int, what: str) -> None:
    require(omega <= chi <= (3 * omega + 1) // 2,
            f"{what}: chi={chi} outside [omega, ceil(3 omega/2)] "
            f"for omega={omega}")


def check_cutset_tree(g: RefGraph, root, atoms_expected, what: str) -> None:
    """Every internal node splits its vertex set by a separating clique, and
    the leaves are the expected atoms.

    root is a capfree DecompositionNode; only its public fields (vertices,
    cutset, left, right) are read.
    """
    require(set(root.vertices) == set(range(g.n)),
            f"{what}: root does not span the graph")
    leaves = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.cutset is None:
            leaves.append(frozenset(node.vertices))
            continue
        left, right, cut = set(node.left.vertices), set(node.right.vertices), \
            set(node.cutset)
        check_clique(g, node.cutset, f"{what}: cutset")
        require(left & right == cut and len(left | right) == len(node.vertices)
                and left | right <= set(node.vertices),
                f"{what}: children do not meet exactly in the cutset")
        require(left - cut and right - cut,
                f"{what}: cutset separates nothing")
        far = mask_of(right - cut)
        require(not any(g.adj[v] & far for v in left - cut),
                f"{what}: cutset {sorted(cut)} does not separate")
        stack.extend((node.left, node.right))
    require(sorted(map(sorted, leaves)) == sorted(map(sorted, atoms_expected)),
            f"{what}: {len(leaves)} leaves, expected the "
            f"{len(atoms_expected)} generated atoms")


# --- exact reference solvers --------------------------------------------

def path_mwss(weights_in_order) -> int:
    """Maximum weight stable set of a path, vertices given in path order."""
    take, skip = 0, 0
    for w in weights_in_order:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


def cycle_mwss(weights_in_order) -> int:
    """Maximum weight stable set of a cycle, vertices in cycle order."""
    ws = list(weights_in_order)
    without_first = path_mwss(ws[1:])
    with_first = ws[0] + path_mwss(ws[2:-1])
    return max(without_first, with_first)


def max_clique(g: RefGraph, within: int) -> tuple[int, ...]:
    """A maximum clique inside the vertex mask, by Bron-Kerbosch with
    pivoting."""
    best: list[int] = []
    stack = [((), within, 0)]
    while stack:
        clique, cand, excl = stack.pop()
        if not cand and not excl:
            if len(clique) > len(best):
                best = list(clique)
            continue
        if len(clique) + cand.bit_count() <= len(best):
            continue
        pivot = max(bits(cand | excl),
                    key=lambda u: (g.adj[u] & cand).bit_count())
        for v in bits(cand & ~g.adj[pivot]):
            stack.append((clique + (v,), cand & g.adj[v], excl & g.adj[v]))
            cand &= ~(1 << v)
            excl |= 1 << v
    return tuple(sorted(best))


def chromatic(g: RefGraph, within: int) -> int:
    """Chromatic number of the induced subgraph on the mask: the least q from
    the clique bound up for which exhaustive DSATUR search finds a
    q-coloring."""
    vs = list(bits(within))
    q = max(len(max_clique(g, within)), 1 if vs else 0)
    while vs and not _colorable(g, vs, within, q):
        q += 1
    return q


def _colorable(g: RefGraph, vs: list[int], within: int, q: int) -> bool:
    color: dict[int, int] = {}

    def pick() -> int:
        def key(v):
            seen = {color[u] for u in bits(g.adj[v] & within) if u in color}
            return len(seen), (g.adj[v] & within).bit_count(), -v
        return max((v for v in vs if v not in color), key=key)

    def extend(used: int) -> bool:
        if len(color) == len(vs):
            return True
        v = pick()
        banned = {color[u] for u in bits(g.adj[v] & within) if u in color}
        for c in range(1, min(q, used + 1) + 1):
            if c not in banned:
                color[v] = c
                if extend(max(used, c)):
                    return True
                del color[v]
        return False

    return extend(0)


def mwss(g: RefGraph, within: int | None = None) -> int:
    """Maximum weight stable set weight by exhaustive branching on a
    highest-degree vertex, splitting into connected components and
    memoising on the remaining vertex mask.  Weights must be positive."""
    memo: dict[int, int] = {}
    if within is None:
        within = (1 << g.n) - 1

    def component(mask: int) -> int:
        seed = mask & -mask
        comp = frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        return comp

    def solve(mask: int) -> int:
        if not mask:
            return 0
        if mask in memo:
            return memo[mask]
        comp = component(mask)
        if comp != mask:
            value = solve(comp) + solve(mask & ~comp)
        else:
            v = max(bits(mask), key=lambda u: (g.adj[u] & mask).bit_count())
            if not g.adj[v] & mask:
                value = sum(g.weights[u] for u in bits(mask))
            else:
                rest = mask & ~(1 << v)
                value = max(solve(rest),
                            g.weights[v] + solve(rest & ~g.adj[v]))
        memo[mask] = value
        return value

    return solve(within)
