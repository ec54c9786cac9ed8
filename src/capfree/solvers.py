"""Coloring, clique number and maximum weight stable set over the
decomposition stack.

Every call reads the cutset tree and one Atom record per leaf from
decomposition.decompose, each built once per call and only when the call
reaches it: the skeleton extraction, and the nice form of the min-fill
decomposition of the atom's twin quotient, at any width, only when a DP
needs it.  Both DPs below run on that one nice form through one driver,
_nice_dp, which spends one node of a NodeBudget per table entry, under
the atom's budget; each gives only its table rules and what it reads off
the traceback.  One per-atom step, _color_atom, serves chromatic_number
and q_color_graph; clique_number reads the skeleton alone.  A complete
atom is answered from its size and the root's masks.

Any other atom, in the class or not, is a clique blow-up of its twin
quotient plus a universal clique U.  Coloring runs the count DP,
_multicolor_dp: vertex v needs demand[v] colors, adjacent vertices get
disjoint ones, and one pass finds the fewest colors up to a cap; the twin
classes are the demands and U takes |U| colors of its own.  Stable sets
run _stable_dp on the quotient alone: every query of Tarjan's
clique-cutset recursion weighs each class by its heaviest survivor and
bars the classes it deletes entirely, and the heaviest survivor of U
stands alone against the quotient's answer.  Clique cutsets combine atom
answers (color permutation, Tarjan's reweighting).  Brute force serves
only the clique number of an atom whose quotient has a triangle and a
coloring whose DP ran out; past the budget the instance is reported
unsupported (UnsupportedInstanceError, a SearchBudgetExceeded), never
answered wrongly.  Returned answers are re-checked by
certify, which raises CertificateError under python -O too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .decomposition import (Atom, DecompositionTree,
                            UnsupportedInstanceError, decompose)
from .graphs import Graph, mask_members, mask_of, vertex_set
from .oracles import (DEFAULT_BUDGET, NodeBudget, SearchBudgetExceeded,
                      certify)
from .treewidth import (NiceDecomposition, TreeDecomposition,
                        nice_decomposition)
from .twins import (SkeletonDecomposition, clique_number_via_skeleton,
                    max_clique_via_skeleton)


def ceil_three_halves(omega: int) -> int:
    return (3 * omega + 1) // 2


def greedy_color(g: Graph) -> list[int]:
    """Greedy coloring along the reverse degeneracy order.

    The order is built backward by repeatedly taking a minimum-degree
    vertex of the remaining graph (ties to the smaller id); coloring then
    assigns each vertex the smallest color unused by its earlier neighbors.
    The minimum comes from a heap of (degree, vertex) entries: a degree
    drop pushes a new entry, and an entry whose degree is no longer current
    is skipped when popped (a vertex's entries carry distinct degrees, and
    a peeled vertex's degree stops changing), so the peel takes
    O((n + m) log n).
    """
    degree = [g.degree(v) for v in g.vertices()]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    alive = [True] * g.n
    peel = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != degree[v]:
            continue
        peel.append(v)
        alive[v] = False
        for u in g.adj[v]:
            if alive[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    colors = [0] * g.n
    for v in reversed(peel):
        taken = {colors[u] for u in g.adj[v] if colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def is_proper_coloring(g: Graph, colors: Sequence[int],
                       q: Optional[int] = None) -> bool:
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    if q is not None and any(c > q for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def _nice_dp(nd: NiceDecomposition, empty, introduce, forget, join, drop,
             budget: NodeBudget):
    """The post-order pass both DPs run, and its traceback.

    A table maps keys (bag states) to values; a leaf's is {empty: 0}, and
    the rules build whole tables: introduce(table, v, room), join(left,
    right), and forget(table, v), which also returns the child key kept
    for each key.  A child's table is dropped once its parent is built.
    Each table entry spends one node of budget; introduce, the only rule
    that grows a table, may stop once it holds more than room, the nodes
    left, since budget then raises SearchBudgetExceeded.
    None when a table is empty; else the root's value and a generator of
    (forget node, chosen child key), parents first.  drop(key, bit) clears
    an introduced vertex from a key on the way down.
    """
    nodes = nd.nodes
    tables: list[Optional[dict]] = [None] * len(nodes)
    choice: dict[int, dict] = {}
    for idx, node in enumerate(nodes):
        kind, kids = node.kind, node.children
        if kind == "leaf":
            table = {empty: 0}
        elif kind == "introduce":
            table = introduce(tables[kids[0]], node.vertex, budget.left)
        elif kind == "forget":
            table, choice[idx] = forget(tables[kids[0]], node.vertex)
        else:
            table = join(tables[kids[0]], tables[kids[1]])
        budget.spend(len(table))
        for kid in kids:
            tables[kid] = None
        if not table:
            return None
        tables[idx] = table

    def traceback():
        stack = [(nd.root, empty)]
        while stack:
            idx, key = stack.pop()
            node = nodes[idx]
            if node.kind == "introduce":
                stack.append((node.children[0], drop(key, 1 << node.vertex)))
            elif node.kind == "forget":
                key = choice[idx][key]
                yield node, key
                stack.append((node.children[0], key))
            elif node.kind == "join":
                left, right = node.children
                stack.append((left, key))
                stack.append((right, key))

    return tables[nd.root][empty], traceback()


def _stable_dp(graph: Graph, nd: NiceDecomposition, allowed: int,
               weights: Sequence[int], budget: Optional[int] = None
               ) -> tuple[int, list[int]]:
    """The heaviest stable set of graph within the vertex mask allowed, as
    (weight, its vertices); vertex v adds weights[v], counted when it is
    forgotten.  Its tables may hold budget entries in all.

    A key is the bitmask of the bag vertices taken.  Introduce keeps every
    key with v left out and, when v is allowed and has no taken neighbour,
    adds it with v taken; leaving v out is always possible, so no table is
    ever empty.  Ties go to the set met first, v left out before v taken.
    Join adds the two sides' values: each side holds every allowed stable
    subset of the bag.
    """
    def introduce(table, v, room):
        bit, nbrs = 1 << v, graph.mask(v)
        if not allowed & bit:
            return table
        out = {}
        for key, value in table.items():
            out[key] = value
            if not key & nbrs:
                out[key | bit] = value
        return out

    def forget(table, v):
        bit, w = 1 << v, weights[v]
        out: dict[int, int] = {}
        picked = {}
        for key, value in table.items():
            if key & bit:
                value += w
            short = key & ~bit
            if short not in out or value > out[short]:
                out[short] = value
                picked[short] = key
        return out, picked

    def join(left, right):
        return {key: value + right[key] for key, value in left.items()}

    value, steps = _nice_dp(nd, 0, introduce, forget, join,
                            lambda key, bit: key & ~bit,
                            NodeBudget("the stable-set DP", budget))
    return value, [node.vertex for node, key in steps
                   if key >> node.vertex & 1]


def _without(key: tuple[int, ...], bit: int) -> tuple[int, ...]:
    """The key with one vertex's bit cleared and the emptied entries
    dropped."""
    return tuple(sorted([e & ~bit for e in key if e != bit]))


def _multicolor_dp(graph: Graph, nd: NiceDecomposition,
                   demand: Sequence[int], cap: int,
                   budget: Optional[int] = None
                   ) -> Optional[tuple[int, list[list[int]]]]:
    """The fewest colors, at most cap, that give every vertex v demand[v]
    colors with adjacent vertices' colors disjoint, and a sorted color
    list per vertex; None when cap colors do not suffice.  Its tables may
    hold budget entries in all.

    A key holds one entry per color held in the bag: the bitmask of the
    bag vertices that hold it, an independent set; entries are sorted, so
    colors are kept only up to renaming.  Its value is the fewest colors a
    coloring of the subtree with that key uses.  Introduce adds v to any j
    <= demand[v] entries that hold no neighbour of v (a multiset of them)
    and adds demand[v] - j entries {v}: these may reuse colors of
    forgotten vertices, which never meet v, so the value becomes the
    larger of the old value and the new number of entries.  Forget clears
    v's bit and keeps the least value.  Join keeps the keys of both sides
    with the larger value, since forgotten vertices of the two sides are
    never adjacent and may share colors.  With every demand 1 a key is the
    bag's partition into color classes (Zhou, Kanari & Nishizeki,
    "Generalized vertex-colorings of partial k-trees", 2000).

    The traceback colors v at its forget node: for each entry S + {v} of
    the chosen child key, v takes a color that exactly the bag vertices S
    hold, and for an entry {v} alone, a color no bag vertex holds.  One is
    free, since a key never has more entries than its value, which is at
    most the total.
    """
    def introduce(table, v, room):
        bit, nbrs, d = 1 << v, graph.mask(v), demand[v]
        out = {}
        for key, value in table.items():
            if len(out) > room:
                break
            # Entries that may take v, grouped by mask (equal masks sit
            # together in the sorted key).
            fixed = []
            groups: list[list[int]] = []
            for e in key:
                if e & nbrs:
                    fixed.append(e)
                elif groups and groups[-1][0] == e:
                    groups[-1][1] += 1
                else:
                    groups.append([e, 1])
            options = [(fixed, 0)]
            for e, m in groups:
                options = [(entries + [e | bit] * c + [e] * (m - c), j + c)
                           for entries, j in options
                           for c in range(min(m, d - j) + 1)]
            for entries, j in options:
                size = len(key) + d - j
                if size <= cap:
                    out[tuple(sorted(entries + [bit] * (d - j)))] = \
                        max(value, size)
        return out

    def forget(table, v):
        bit = 1 << v
        out: dict[tuple[int, ...], int] = {}
        picked = {}
        for key, value in table.items():
            short = _without(key, bit)
            if short not in out or value < out[short]:
                out[short] = value
                picked[short] = key
        return out, picked

    def join(left, right):
        return {key: max(value, right[key])
                for key, value in left.items() if key in right}

    found = _nice_dp(nd, (), introduce, forget, join, _without,
                     NodeBudget("the coloring DP", budget))
    if found is None:
        return None
    total, steps = found
    colors: list[list[int]] = [[] for _ in range(graph.n)]
    for node, key in steps:
        v = node.vertex
        bit = 1 << v
        holders: dict[int, int] = {}
        for u in node.bag:
            for c in colors[u]:
                holders[c] = holders.get(c, 0) | 1 << u
        # Each list runs downward, so pop() takes its least color.
        held_by: dict[int, list[int]] = {}
        for c in sorted(holders, reverse=True):
            held_by.setdefault(holders[c], []).append(c)
        held_by[0] = [c for c in range(total, 0, -1) if c not in holders]
        colors[v] = sorted(held_by[e ^ bit].pop() for e in key if e & bit)
    return total, colors


def q_color(atom: Graph, td: TreeDecomposition, q: int
            ) -> Optional[list[int]]:
    """A proper q-coloring of the atom via the count DP over the
    decomposition's nice form (every demand 1), with no bound on its
    tables, or None when no q-coloring exists."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if not td.is_valid(atom):
        raise ValueError("decomposition is not valid for the graph")
    found = _multicolor_dp(atom, nice_decomposition(td), [1] * atom.n, q)
    if found is None:
        return None
    colors = [c for c, in found[1]]
    certify(is_proper_coloring(atom, colors, q), "DP coloring not proper")
    return colors


def combine_colorings(tree: DecompositionTree,
                      atom_colorings: Sequence[dict[int, int]],
                      q: int) -> list[int]:
    """Merge per-atom colorings into a proper coloring of the whole graph.

    atom_colorings aligns with tree.pieces.  Each split-off atom's colors
    are permuted to agree with the rest of the graph on its cutset clique
    (whose colors are pairwise distinct, so a permutation always exists).
    """
    if len(atom_colorings) != len(tree.pieces):
        raise ValueError("need one coloring per decomposition leaf")
    for (_, atom), coloring in zip(tree.pieces, atom_colorings):
        if set(coloring) != set(atom):
            raise ValueError("coloring does not match its atom")
        if any(not 1 <= c <= q for c in coloring.values()):
            raise ValueError(f"atom coloring exceeds {q} colors")
    # Bottom-up along the spine, from the last atom, split off along ():
    # each atom's colors are permuted to agree with the graph below it.
    total: dict[int, int] = {}
    for (cutset, _), coloring in zip(reversed(tree.pieces),
                                     reversed(atom_colorings)):
        perm = {coloring[v]: total[v] for v in cutset}
        free = iter(c for c in range(1, q + 1) if c not in perm.values())
        for c in range(1, q + 1):
            if c not in perm:
                perm[c] = next(free)
        total.update((v, perm[c]) for v, c in coloring.items())
    colors = [total[v] for v in tree.graph.vertices()]
    certify(is_proper_coloring(tree.graph, colors, q),
            "merged coloring not proper")
    return colors


def _color_atom(atom: Atom, cap: int) -> Optional[tuple[int, list[int]]]:
    """(chi, coloring) of the atom, or None for an atom that needs more
    than cap colors.  A complete atom gets its chromatic number whatever
    the cap, and so does an atom whose DP runs out of budget, by brute
    force.  The count DP runs over the twin quotient's decomposition:
    quotient vertex v needs |class v| colors, its class members take one
    each, and the universal clique takes the |U| colors after the DP's
    total.
    """
    if atom.complete:
        n = len(atom.vertices)
        return n, list(range(1, n + 1))
    sd = atom.extracted
    try:
        found = _multicolor_dp(sd.quotient, atom.nice,
                               [len(cls) for cls in sd.classes],
                               cap - len(sd.universal), atom.budget)
    except SearchBudgetExceeded as exc:
        result = atom.brute("chromatic", f"atom is undecided: {exc}")
        return result.value, list(result.witness)
    if found is None:
        return None
    total, lists = found
    colors = [0] * atom.graph.n
    for cls, colors_of_class in zip(sd.classes, lists):
        for v, c in zip(cls, colors_of_class):
            colors[v] = c
    for i, v in enumerate(sd.universal, total + 1):
        colors[v] = i
    chi = total + len(sd.universal)
    certify(is_proper_coloring(atom.graph, colors, chi),
            "DP coloring not proper")
    return chi, colors


def chromatic_number(g: Graph, *, budget: int = DEFAULT_BUDGET
                     ) -> tuple[int, list[int]]:
    """Exact chromatic number with a proper coloring.

    Per atom, the count DP (_color_atom) capped at ceil(3/2 omega) colors
    for an in-class atom, else or past that at the number of colors
    greedy_color uses, which always suffices.  Its tables grow with the
    quotient's width and the cap, not with the twin classes' members.
    """
    if g.n == 0:
        return 0, []
    tree, atoms = decompose(g, budget=budget)
    per_leaf: list[dict[int, int]] = []
    chi = 1
    for atom in atoms:
        sd = atom.extracted
        found = None
        if atom.complete or isinstance(sd, SkeletonDecomposition):
            omega = 0 if atom.complete else clique_number_via_skeleton(sd)
            found = _color_atom(atom, ceil_three_halves(omega))
        if found is None:
            found = _color_atom(atom, max(greedy_color(atom.graph)))
        chi = max(chi, found[0])
        per_leaf.append(dict(zip(atom.vertices, found[1])))
    coloring = combine_colorings(tree, per_leaf, chi)
    return chi, coloring


def q_color_graph(g: Graph, q: int, *, budget: int = DEFAULT_BUDGET
                  ) -> Optional[list[int]]:
    """A proper q-coloring of the whole graph, or None.

    The graph is q-colorable iff every atom is; atom colorings are merged
    along the cutsets."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if g.n == 0:
        return []
    tree, atoms = decompose(g, budget=budget)
    per_leaf = []
    for atom in atoms:
        found = _color_atom(atom, q)
        if found is None or found[0] > q:
            return None
        per_leaf.append(dict(zip(atom.vertices, found[1])))
    return combine_colorings(tree, per_leaf, q)


def clique_number(g: Graph, *, budget: int = DEFAULT_BUDGET
                  ) -> tuple[int, tuple[int, ...]]:
    """omega with a witness clique, through the skeleton structure.

    Complete atoms contribute themselves; atoms with a skeleton contribute
    the universal clique plus the heaviest class or adjacent class pair
    (exact for any blow-up of a triangle-free skeleton, so no tree
    decomposition is built); other atoms fall back to the brute oracle
    under budget nodes."""
    best = 0
    witness: tuple[int, ...] = ()
    for atom in decompose(g, budget=budget)[1]:
        if atom.complete:
            value, local = len(atom.vertices), range(len(atom.vertices))
        elif isinstance(atom.extracted, SkeletonDecomposition):
            local = max_clique_via_skeleton(atom.extracted)
            value = len(local)
        else:
            result = atom.brute(
                "max-clique", "atom is outside the class: its would-be "
                              "skeleton has a triangle")
            value, local = result.value, result.witness
        # The atom is induced, so a clique of it is one of g.
        found = vertex_set(atom.vertices[v] for v in local)
        certify(g.is_clique(found) and len(found) == value,
                "clique witness failed re-check")
        if value > best:
            best = value
            witness = found
    return best, witness


@dataclass(frozen=True)
class StableSetResult:
    vertices: tuple[int, ...]
    weight: int


def _solve_atom(atom: Atom, deleted: set[int], weights: Sequence[int]
                ) -> tuple[int, tuple[int, ...]]:
    """The heaviest stable set of the atom minus the deleted atom
    vertices, as (weight, root-id vertex tuple); weights are indexed by
    root id.  mwss asks this of an atom minus its cutset, or minus a
    closed neighborhood, under the current weights.

    A non-complete atom runs the stable-set DP on its twin quotient over
    the atom's shared nice decomposition: each class weighs its heaviest
    survivor, and classes left without one may not be taken.  A stable set
    that takes a vertex of the universal clique U, complete to the atom,
    is that vertex alone: the heaviest survivor of U replaces the
    quotient's set when heavier.  A DP past the atom's budget raises
    UnsupportedInstanceError.
    """
    survivors = [v for v in range(len(atom.vertices)) if v not in deleted]
    if not survivors:
        return 0, ()
    local_w = {v: weights[atom.vertices[v]] for v in survivors}
    if atom.complete:
        best = max(survivors, key=lambda v: (local_w[v], -v))
        if local_w[best] <= 0:
            return 0, ()
        return local_w[best], (atom.vertices[best],)
    sd = atom.extracted
    # Restriction soundness: surviving universal vertices stay universal
    # and surviving class members stay true twins.
    graph = atom.graph
    alive_mask = mask_of(survivors)
    universal_left = [v for v in sd.universal if v not in deleted]
    for v in universal_left:
        assert (graph.mask(v) | 1 << v) & alive_mask == alive_mask
    reps: list[Optional[int]] = []
    allowed = 0
    for i, cls in enumerate(sd.classes):
        alive = [v for v in cls if v not in deleted]
        masks = {(graph.mask(v) | 1 << v) & alive_mask for v in alive}
        assert len(masks) <= 1, "restricted class is not a twin class"
        reps.append(min(alive, key=lambda v: -local_w[v]) if alive else None)
        allowed |= bool(alive) << i
    try:
        value, taken = _stable_dp(
            sd.quotient, atom.nice, allowed,
            [0 if r is None else local_w[r] for r in reps], atom.budget)
    except SearchBudgetExceeded as exc:
        raise UnsupportedInstanceError(f"atom is undecided: {exc}") from exc
    picked = [reps[i] for i in taken]
    if universal_left:
        top = min(universal_left, key=lambda v: -local_w[v])
        if local_w[top] > value:
            value, picked = local_w[top], [top]
    certify(None not in picked and graph.is_stable(picked)
            and sum(local_w[v] for v in picked) == value,
            "DP stable set failed re-check")
    return value, vertex_set(atom.vertices[v] for v in picked)


def mwss(g: Graph, weights: Optional[Sequence[int]] = None, *,
         budget: int = DEFAULT_BUDGET) -> StableSetResult:
    """Maximum weight stable set via top-down clique-cutset recursion.

    At each piece, cutset S and atom A in leaf order: solve A minus S and
    A minus each closed neighborhood N[v] (v in S), reweight S by
    w'(v) = w(v) + w(I_v) - w(I'), go on to the rest of the graph, and
    combine.  The last atom is split off along S = (), so it is solved
    whole.  The reweighting never increases a weight (asserted).
    """
    base = list(weights) if weights is not None else list(g.weights)
    if len(base) != g.n:
        raise ValueError("weights length must equal vertex count")
    # Top-down along the spine: solve each split-off atom, reweight its
    # cutset for the graph below and record how to lift that graph's answer.
    # The cutset's new weights are written into w only after the piece's
    # last solve call, which reads the old ones.
    tree, atoms = decompose(g, budget=budget)
    w = list(base)
    lifts = []
    for (cut, _), atom in zip(tree.pieces, atoms):
        local = {r: i for i, r in enumerate(atom.vertices)}
        base_value, base_set = _solve_atom(atom, {local[v] for v in cut}, w)
        sub_sets = {}
        reweighted = []
        for v in cut:
            closed = {local[u] for u in
                      mask_members((g.mask(v) | 1 << v) & atom.mask)}
            value_v, sub_sets[v] = _solve_atom(atom, closed, w)
            reweighted.append(w[v] + value_v - base_value)
            assert reweighted[-1] <= w[v], \
                "reweighting must not increase a weight"
        for v, wv in zip(cut, reweighted):
            w[v] = wv
        lifts.append((cut, base_value, base_set, sub_sets))
    # Bottom-up: since w'(v) = w(v) + value_v - base_value, the total is
    # base_value plus the answer below whether or not that answer takes a
    # cutset vertex v.
    value, picked = 0, set()
    for cut, base_value, base_set, sub_sets in reversed(lifts):
        inside = picked & set(cut)
        picked |= set(sub_sets[inside.pop()] if len(inside) == 1
                      else base_set)
        value += base_value
    result = vertex_set(picked)
    certify(g.is_stable(result), "result must be a stable set")
    certify(sum(base[v] for v in result) == value,
            "weight bookkeeping mismatch")
    return StableSetResult(result, value)
