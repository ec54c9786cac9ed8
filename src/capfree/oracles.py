"""Brute-force reference oracles, intended for desk-scale instances.

Everything here is exhaustive by definition and serves as ground truth for
the structural algorithms.  Witnesses are returned in a canonical order and
re-check against their definitional predicate via verify_witness, which
decides the induced structure of every kind with one test: the vertices
that the parts name must induce exactly the edges that the parts name.

One induced-path search, _induced_paths, serves every cycle and path
oracle.  One chordless-cycle search on it, _cycles_through, yields each
cycle as it finds it, as a vertex and an induced path between two of its
neighbours: the enumerations list it, and the one hole finder (even hole,
4-hole, cap, even wheel) and the odd-signing read it and stop at their
first answer.  The theta and prism finders join pairs of branch vertices
by induced paths.  The search and
the brute-force solvers run on explicit stacks, so no input size meets
Python's recursion limit.  Every budgeted search of the package counts
its nodes on a NodeBudget, under a keyword-only budget: unbounded by
default for the cycle oracles and finders, DEFAULT_BUDGET for brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional

from .graphs import Graph, mask_members, mask_of, reach


DEFAULT_BUDGET = 200_000


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its NodeBudget; its answer is undecided, never
    silently wrong."""


class NodeBudget:
    """The nodes one search may still visit, None for no bound: the pops
    of _induced_paths over one enumeration or finder, the frames, steps
    or subsets of a brute-force search (over every q of a chromatic one),
    the table entries of a DP; the one place that raises
    SearchBudgetExceeded."""

    def __init__(self, search: str, budget: Optional[int]):
        self.search, self.budget = search, budget
        self.left = math.inf if budget is None else budget

    def spend(self, count: int = 1) -> None:
        self.left -= count
        if self.left < 0:
            raise SearchBudgetExceeded(
                f"{self.search} ran out of its budget of {self.budget} nodes")


class CertificateError(RuntimeError):
    """A returned answer failed its re-check; raised under python -O too."""


def certify(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def canonical_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle from its least vertex toward the smaller of that vertex's
    two cycle neighbours: the one form in which the chordless-cycle
    searches return a cycle."""
    i = cyc.index(min(cyc))
    rotated = cyc[i:] + cyc[:i]
    if rotated[1] > rotated[-1]:
        rotated = rotated[:1] + rotated[:0:-1]
    return rotated


def cycle_order(cyc: tuple[int, ...]) -> list[tuple[int, int]]:
    """The sort key of enumerate_chordless_cycles' order on canonical
    cycles.  Its search extends a path by ascending vertex and lists the
    cycles that the path closes before it extends the path, so the order
    is tuple order, except that at the same prefix a closing vertex comes
    before every extension."""
    return [(1, v) for v in cyc[:-1]] + [(0, cyc[-1])]


def enumerate_chordless_cycles(g: Graph, max_len: Optional[int] = None, *,
                               budget: Optional[int] = None
                               ) -> list[tuple[int, ...]]:
    """All chordless cycles of length >= 3, each once, in canonical form
    (canonical_cycle) and sorted by cycle_order: _cycles_through over
    every vertex, listed.  Exponential in the worst case; budget bounds
    the search nodes.
    """
    return list(_cycles_through(
        g, range(g.n), NodeBudget("the chordless-cycle enumeration", budget),
        max_len))


def chordless_cycles_through(g: Graph, fresh: Iterable[int]
                            ) -> list[tuple[int, ...]]:
    """The chordless cycles of g that pass through a vertex of fresh, as
    enumerate_chordless_cycles gives them: canonical and in its order.

    The chordless cycles of g are those of g minus fresh plus these, so
    merging the two lists by cycle_order gives enumerate_chordless_cycles
    of g.
    """
    found = [canonical_cycle(c) for c in _cycles_through(
        g, fresh, NodeBudget("the chordless-cycle search", None))]
    found.sort(key=cycle_order)
    return found


def _cycles_through(g: Graph, fresh: Iterable[int], nodes: NodeBudget,
                    max_len: Optional[int] = None
                    ) -> Iterator[tuple[int, ...]]:
    """The chordless cycles of at most max_len vertices through a vertex
    of fresh, each once, as they are found: the one chordless-cycle search.

    A cycle is found at its least fresh vertex f, as f, a, ..., w with
    a < w: for each neighbour a of f, the induced paths from a to a higher
    neighbour of f that avoid every fresh vertex up to f and whose inner
    vertices miss N(f).  With every vertex fresh, f is the cycle's least
    vertex, so each cycle comes canonical and in cycle_order.
    """
    path_len = None if max_len is None else max_len - 1
    skip = 0
    for f in sorted(set(fresh)):
        skip |= 1 << f
        f_mask = g.mask(f)
        inner = ~skip & ~f_mask
        ends = f_mask & ~skip
        while ends:
            low = ends & -ends
            ends ^= low
            for p in _induced_paths(g, low.bit_length() - 1, ends, inner,
                                    nodes, path_len):
                yield (f,) + p


def _induced_paths(g: Graph, x: int, ends: int, inner: int, nodes: NodeBudget,
                   max_len: Optional[int] = None) -> list[tuple[int, ...]]:
    """The induced paths x, ..., w of at most max_len vertices with w in
    the mask ends and every vertex between x and w in the mask inner.

    One depth-first search serves every cycle and path oracle.  It extends
    a path by ascending vertex and lists the paths that the path closes
    before it extends the path.  A branch stops once every end sees a
    vertex of the path: a longer path would give each end a chord.  It runs
    on an explicit stack, so long holes do not recurse; it counts its pops
    on a local, since this loop is the hot one, and hands them to nodes.
    """
    limit = g.n if max_len is None else max_len
    results: list[tuple[int, ...]] = []
    p: list[int] = []
    # An entry (v, blocked, depth) extends p[:depth] by v.  blocked holds
    # x and the neighbours of p[:depth], so no path vertex but the last
    # is in it.  Extensions are pushed in descending order, so the least
    # is tried first.
    stack = [(x, 1 << x, 0)]
    left = nodes.left
    while stack:
        left -= 1
        if left < 0:
            nodes.spend(nodes.left - left)  # more than it has: raises
        last, blocked, depth = stack.pop()
        del p[depth:]
        p.append(last)
        if depth + 2 > limit:
            continue
        nbrs = g.mask(last)
        open_ends = ends & ~blocked
        closing = open_ends & nbrs
        while closing:
            low = closing & -closing
            closing ^= low
            results.append(tuple(p) + (low.bit_length() - 1,))
        if depth + 3 > limit or not open_ends & ~nbrs:
            continue
        options = nbrs & inner & ~blocked
        blocked |= nbrs
        while options:
            w = options.bit_length() - 1
            options ^= 1 << w
            stack.append((w, blocked, depth + 1))
    nodes.left = left
    return results


def holes_of(g: Graph) -> list[tuple[int, ...]]:
    """Chordless cycles of length at least 4."""
    return [c for c in enumerate_chordless_cycles(g) if len(c) >= 4]


Signing = dict[tuple[int, int], int]


def cycle_weight(cyc: tuple[int, ...], signing: Signing) -> int:
    total = 0
    for i in range(len(cyc)):
        u, v = cyc[i], cyc[(i + 1) % len(cyc)]
        total += signing[(u, v) if u < v else (v, u)]
    return total


def odd_signable_signing(g: Graph, *, budget: Optional[int] = None
                         ) -> Optional[Signing]:
    """A 0/1 edge signing making every chordless cycle odd, or None:
    odd_signing on the chordless cycles of g as the search finds them,
    under budget nodes of the chordless-cycle enumeration."""
    return odd_signing(g, _cycles_through(
        g, range(g.n), NodeBudget("the chordless-cycle enumeration", budget)))


def odd_signing(g: Graph, cycles: Iterable[tuple[int, ...]]
                ) -> Optional[Signing]:
    """A 0/1 edge signing of g making every cycle of cycles odd, or None.

    Builds one GF(2) equation per cycle, in the order cycles gives them,
    and eliminates over a dense bit-matrix.  It returns None at the first
    cycle whose equation reduces to 0 = 1, drawing no further cycle; a
    returned signing is verified against every cycle drawn.
    """
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    const_bit = 1 << len(edges)
    pivots: dict[int, int] = {}
    drawn: list[tuple[int, ...]] = []
    for cyc in cycles:
        drawn.append(cyc)
        row = const_bit
        for i in range(len(cyc)):
            u, v = cyc[i], cyc[(i + 1) % len(cyc)]
            row ^= 1 << index[(u, v) if u < v else (v, u)]
        for piv in sorted(pivots):
            if row >> piv & 1:
                row ^= pivots[piv]
        lead = row & ~const_bit
        if lead == 0:
            if row & const_bit:
                return None
            continue
        pivots[(lead & -lead).bit_length() - 1] = row
    signing = {e: 0 for e in edges}
    # Free variables stay 0; pivot variables are forced in reverse order.
    for piv in sorted(pivots, reverse=True):
        row = pivots[piv]
        value = 1 if row & const_bit else 0
        rest = row & ~const_bit & ~(1 << piv)
        while rest:
            low = rest & -rest
            rest ^= low
            value ^= signing[edges[low.bit_length() - 1]]
        signing[edges[piv]] = value
    for cyc in drawn:
        certify(cycle_weight(cyc, signing) % 2 == 1, "signing failed re-check")
    return signing


@dataclass(frozen=True)
class ForbiddenWitness:
    """A vertex list realizing a named forbidden structure.

    parts gives the structural breakdown: (cycle,) for holes, (hole, (apex,))
    for caps and wheels, and the three paths for thetas and prisms.
    """
    kind: str
    vertices: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    def relabel(self, mapping) -> "ForbiddenWitness":
        return ForbiddenWitness(
            self.kind,
            tuple(mapping[v] for v in self.vertices),
            tuple(tuple(mapping[v] for v in part) for part in self.parts))


def _is_cap_apex(nbrs: list[int], k: int) -> bool:
    """Whether a vertex seeing exactly the hole positions nbrs, on a hole
    of length k, caps it: two consecutive positions."""
    return len(nbrs) == 2 and (nbrs[1] - nbrs[0] == 1 or nbrs == [0, k - 1])


def _is_even_wheel_hub(nbrs: list[int], k: int) -> bool:
    """Whether a vertex seeing the hole positions nbrs is the hub of an
    even wheel: an even number of them, at least 4."""
    return len(nbrs) >= 4 and len(nbrs) % 2 == 0


# The hole-plus-one-vertex kinds: the test the outside vertex's positions
# on the hole must pass.
_APEX_TESTS = {"cap": _is_cap_apex, "even-wheel": _is_even_wheel_hub}


_PART_COUNTS = {"triangle": 1, "even-hole": 1, "4-hole": 1, "cap": 2,
                "even-wheel": 2, "theta": 3, "prism": 3}


def _closed(p: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The consecutive pairs of p and its closing pair."""
    return zip(p, p[1:] + p[:1])


def _induces_exactly(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the ends of edges induce exactly edges in g: one neighbour
    mask comparison per vertex, so long witnesses re-check fast."""
    want: dict[int, int] = {}
    for u, v in edges:
        want[u] = want.get(u, 0) | 1 << v
        want[v] = want.get(v, 0) | 1 << u
    on = mask_of(want)
    return all(g.mask(v) & on == nbrs for v, nbrs in want.items())


def verify_witness(g: Graph, w: ForbiddenWitness) -> bool:
    """Re-check a witness against the definition of its kind.

    The parts name their vertices, each once, and the edges those must
    induce: the pairs of a triangle, the consecutive pairs of each path,
    the closing pair of a hole, and the pairs of a prism's end triangles.
    The named vertices must be distinct and be w.vertices, and
    _induces_exactly decides the edges; what stays per kind is lengths,
    ends and the apex's positions on its hole.  A witness with the wrong
    number of parts, an empty part or a vertex outside g fails.
    """
    if w.kind not in _PART_COUNTS:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    if (len(w.parts) != _PART_COUNTS[w.kind] or not all(w.parts)
            or not all(0 <= v < g.n for v in w.vertices + sum(w.parts, ()))):
        return False
    if w.kind == "triangle":
        (tri,) = w.parts
        named, edges, ok = tri, combinations(tri, 2), len(tri) == 3
    elif w.kind in ("even-hole", "4-hole"):
        (cyc,) = w.parts
        named, edges = cyc, _closed(cyc)
        ok = len(cyc) % 2 == 0 and (len(cyc) == 4 if w.kind == "4-hole"
                                    else len(cyc) >= 4)
    elif w.kind in _APEX_TESTS:
        cyc, hub = w.parts
        named, edges = cyc + hub, _closed(cyc)
        nbrs = [i for i, v in enumerate(cyc) if g.has_edge(hub[0], v)]
        ok = (len(hub) == 1 and len(cyc) >= 4
              and _APEX_TESTS[w.kind](nbrs, len(cyc)))
    elif w.kind == "theta":
        # Distinct named vertices give x != y and disjoint interiors.
        paths = p1, p2, p3 = w.parts
        x, y = p1[0], p1[-1]
        named = (x, y) + p1[1:-1] + p2[1:-1] + p3[1:-1]
        edges = [e for p in paths for e in zip(p, p[1:])]
        ok = all(len(p) >= 3 and p[0] == x and p[-1] == y for p in paths)
    else:
        paths = p1, p2, p3 = w.parts
        named = p1 + p2 + p3
        edges = [e for p in paths for e in zip(p, p[1:])]
        edges += [*_closed((p1[0], p2[0], p3[0])),
                  *_closed((p1[-1], p2[-1], p3[-1]))]
        ok = all(len(p) >= 2 for p in paths)
    on = mask_of(named)
    return (ok and on.bit_count() == len(named) == len(w.vertices)
            and mask_of(w.vertices) == on and _induces_exactly(g, edges))


def _triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Every triangle u < v < w, in tuple order."""
    for u in g.vertices():
        for v in g.adj[u]:
            if v <= u:
                continue
            common = g.mask(u) & g.mask(v) & ~((1 << (v + 1)) - 1)
            while common:
                low = common & -common
                common ^= low
                yield (u, v, low.bit_length() - 1)


def _find_triangle(g: Graph) -> Optional[ForbiddenWitness]:
    tri = next(_triangles(g), None)
    return None if tri is None else ForbiddenWitness("triangle", tri, (tri,))


def _find_hole(g: Graph, nodes: NodeBudget, kind: str
               ) -> Optional[ForbiddenWitness]:
    """The first witness of kind among the holes, in enumeration order: an
    even hole, a 4-hole, or a hole with the first outside vertex whose
    positions on it pass kind's apex test."""
    test = _APEX_TESTS.get(kind)
    for cyc in _cycles_through(g, range(g.n), nodes,
                               4 if kind == "4-hole" else None):
        if len(cyc) < 4:
            continue
        if test is None:
            if len(cyc) % 2 == 0:
                return ForbiddenWitness(kind, cyc, (cyc,))
            continue
        on_hole = set(cyc)
        for apex in g.vertices():
            if apex in on_hole:
                continue
            nbrs = [i for i, v in enumerate(cyc) if g.has_edge(apex, v)]
            if test(nbrs, len(cyc)):
                return ForbiddenWitness(kind, cyc + (apex,), (cyc, (apex,)))
    return None


def _find_theta(g: Graph, nodes: NodeBudget) -> Optional[ForbiddenWitness]:
    """The first theta by branch pair (x, y), x < y.  Each branch vertex
    starts three paths whose interiors are disjoint and non-adjacent, so
    it has degree at least 3, and pairs with a smaller degree are
    skipped."""
    for x in g.vertices():
        if g.degree(x) < 3:
            continue
        for y in range(x + 1, g.n):
            if g.degree(y) < 3 or g.has_edge(x, y):
                continue
            paths = _induced_paths(g, x, 1 << y, ~0, nodes)
            if len(paths) < 3:
                continue
            inner_masks = [mask_of(p[1:-1]) for p in paths]
            reach_masks = []
            for p in paths:
                seen = 0
                for v in p[1:-1]:
                    seen |= g.mask(v) | (1 << v)
                reach_masks.append(seen)
            for i, j, k in combinations(range(len(paths)), 3):
                if (reach_masks[i] & inner_masks[j]
                        or reach_masks[i] & inner_masks[k]
                        or reach_masks[j] & inner_masks[k]):
                    continue
                flat = tuple(dict.fromkeys(paths[i] + paths[j] + paths[k]))
                return ForbiddenWitness("theta", flat,
                                        (paths[i], paths[j], paths[k]))
    return None


def _prism_pair_ok(g: Graph, p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    if set(p) & set(q):
        return False
    for u in p:
        for v in q:
            if g.has_edge(u, v) and {u, v} not in ({p[0], q[0]},
                                                   {p[-1], q[-1]}):
                return False
    return True


def _find_prism(g: Graph, nodes: NodeBudget) -> Optional[ForbiddenWitness]:
    tris = list(_triangles(g))
    for i, t1 in enumerate(tris):
        for t2 in tris[i + 1:]:
            if set(t1) & set(t2):
                continue
            for perm in permutations(t2):
                corners = mask_of(t1 + t2)
                all_paths = [_induced_paths(g, a, 1 << b, ~corners, nodes)
                             for a, b in zip(t1, perm)]
                if any(not paths for paths in all_paths):
                    continue
                for p1 in all_paths[0]:
                    for p2 in all_paths[1]:
                        if not _prism_pair_ok(g, p1, p2):
                            continue
                        for p3 in all_paths[2]:
                            if (_prism_pair_ok(g, p1, p3)
                                    and _prism_pair_ok(g, p2, p3)):
                                return ForbiddenWitness(
                                    "prism", p1 + p2 + p3, (p1, p2, p3))
    return None


_FINDERS = {
    **{kind: partial(_find_hole, kind=kind)
       for kind in ("even-hole", "4-hole", "cap", "even-wheel")},
    "theta": _find_theta,
    "prism": _find_prism,
    "triangle": lambda g, nodes: _find_triangle(g),
}


def find_forbidden_induced(g: Graph, kind: str, *,
                           budget: Optional[int] = None
                           ) -> Optional[ForbiddenWitness]:
    """Exhaustive search for one forbidden structure of the given kind,
    under budget search nodes."""
    try:
        finder = _FINDERS[kind]
    except KeyError:
        raise ValueError(f"unknown forbidden structure kind {kind!r}")
    witness = finder(g, NodeBudget(f"the {kind} search", budget))
    if witness is not None:
        certify(verify_witness(g, witness), f"{kind} witness failed re-check")
    return witness


def find_any_forbidden(g: Graph, kinds, *, budget: Optional[int] = None
                       ) -> Optional[ForbiddenWitness]:
    for kind in kinds:
        witness = find_forbidden_induced(g, kind, budget=budget)
        if witness is not None:
            return witness
    return None


@dataclass(frozen=True)
class BruteResult:
    problem: str
    value: int
    witness: Optional[tuple[int, ...]]


BRUTE_PROBLEMS = ("chromatic", "mwss", "max-clique", "clique-cutset")


def brute_solve(g: Graph, problem: str, *,
                budget: Optional[int] = DEFAULT_BUDGET) -> BruteResult:
    """Exact solver by exhaustive search of at most budget nodes.

    chromatic/max-clique/mwss return value plus witness; clique-cutset
    returns value 1 with the cutset, or value 0 with witness None.
    """
    if problem not in BRUTE_PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    nodes = NodeBudget(f"the brute-force {problem} search", budget)
    if problem == "max-clique":
        value, witness = _brute_max_clique(g, nodes)
    elif problem == "mwss":
        value, witness = _brute_mwss(g, g.weights, nodes)
    elif problem == "chromatic":
        value, witness = _brute_chromatic(g, nodes)
    else:
        witness = _brute_clique_cutset(g, nodes)
        value = int(witness is not None)
    return BruteResult(problem, value, witness)


def _brute_max_clique(g: Graph, nodes: NodeBudget
                      ) -> tuple[int, tuple[int, ...]]:
    """Depth-first growth of cliques by least candidate, pruned when the
    clique and all its candidates cannot beat the best so far."""
    best, found = 0, ()
    clique: list[int] = []
    # stack[i] holds the candidates left to extend the clique's first i
    # vertices: each is adjacent to all of them.
    stack = [(1 << g.n) - 1]
    while stack:
        nodes.spend()
        candidates = stack[-1]
        if not candidates or len(clique) + candidates.bit_count() <= best:
            stack.pop()
            if clique:
                clique.pop()
            continue
        low = candidates & -candidates
        v = low.bit_length() - 1
        stack[-1] = candidates ^ low
        clique.append(v)
        if len(clique) > best:
            best, found = len(clique), tuple(clique)
        stack.append(stack[-1] & g.mask(v))
    return best, found


def _brute_mwss(g: Graph, weights, nodes: NodeBudget
                ) -> tuple[int, tuple[int, ...]]:
    """Branch and bound; vertices of nonpositive weight are never taken.
    Each vertex of the order is taken, when no chosen vertex sees it,
    before it is left out."""
    order = sorted((v for v in g.vertices() if weights[v] > 0),
                   key=lambda v: (-weights[v], v))
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[order[i]]
    best, found = 0, ()
    # A state decides order[i:] given the chosen vertices, the mask they
    # exclude and their total; the branch that takes order[i] is pushed
    # last, so it is searched first.
    stack = [(0, [], 0, 0)]
    while stack:
        nodes.spend()
        i, chosen, excluded, total = stack.pop()
        if total > best:
            best, found = total, tuple(sorted(chosen))
        if i == len(order) or total + suffix[i] <= best:
            continue
        v = order[i]
        stack.append((i + 1, chosen, excluded, total))
        if not excluded >> v & 1:
            stack.append((i + 1, chosen + [v],
                          excluded | g.mask(v) | (1 << v),
                          total + weights[v]))
    return best, found


def _brute_chromatic(g: Graph, nodes: NodeBudget
                     ) -> tuple[int, tuple[int, ...]]:
    if g.n == 0:
        return 0, ()
    lower = _brute_max_clique(g, nodes)[0]
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    for q in range(lower, g.n + 1):
        colors = _try_color(g, order, q, nodes)
        if colors is not None:
            return q, colors
    raise AssertionError("unreachable")


def _try_color(g: Graph, order, q: int, nodes: NodeBudget
               ) -> Optional[tuple[int, ...]]:
    """A q-coloring by backtracking along order, or None: each vertex
    tries its least color above the one it holds, at most one more than
    the colors used before it and none its colored neighbours hold."""
    colors = [0] * g.n
    # One frame per vertex on the way down: its index in order, the number
    # of colors used before it, and the colors its neighbours hold.
    stack: list[tuple[int, int, set[int]]] = []
    i = used = 0
    while i < len(order):
        v = order[i]
        stack.append((i, used, {colors[u] for u in g.adj[v] if colors[u]}))
        while stack:
            nodes.spend()
            i, used, taken = stack[-1]
            v = order[i]
            top = min(q, used + 1)
            c = colors[v] + 1
            while c <= top and c in taken:
                c += 1
            if c <= top:
                colors[v] = c
                i, used = i + 1, max(used, c)
                break
            colors[v] = 0
            stack.pop()
        else:
            return None
    return tuple(colors)


def _brute_clique_cutset(g: Graph, nodes: NodeBudget
                         ) -> Optional[tuple[int, ...]]:
    """The first clique cutset by size, then lexicographically: cliques
    grow by ascending vertex, level by level, each level in that order."""
    if g.n == 0:
        return None
    adj = [g.mask(v) for v in g.vertices()]
    if not _connected_without(adj, 0):
        return ()
    level = [((), (1 << g.n) - 1)]
    for _ in range(g.n - 2):
        grown = []
        for clique, later in level:
            for v in mask_members(later):
                nodes.spend()
                sub = clique + (v,)
                if not _connected_without(adj, mask_of(sub)):
                    return sub
                grown.append((sub, later & adj[v] >> v + 1 << v + 1))
        level = grown
    return None


def _connected_without(adj: list[int], removed: int) -> bool:
    """Whether the vertices outside the mask removed induce a connected
    graph, for neighbour masks adj."""
    rest = ((1 << len(adj)) - 1) & ~removed
    return reach(adj, rest & -rest, rest) == rest
