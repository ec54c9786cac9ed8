"""Coloring, clique number and maximum weight stable set over the
decomposition stack.

Every call reads each leaf of clique_cutset_tree through one Atom record
(decomposition.py), built once per call: the skeleton extraction, and the
skeleton's width-5 tree decomposition only when a DP needs it.  One
per-atom step, _color_atom, serves chromatic_number and q_color_graph;
clique_number reads the skeleton alone.

Per-atom answers come from one labelling DP, _nice_dp, over a nice tree
decomposition: each vertex takes a label from its own list, adjacent
vertices never share a label other than 0 (unlabelled), and the heaviest
labelling wins, a vertex with a nonzero label adding its weight.
q-coloring runs it on an atom's lifted decomposition with labels 1..q and
zero weights; those labels are interchangeable, so the DP keys each bag by
its partition into color classes, not by a tuple of colors.  Stable sets
run it with labels {0, 1} on the reduction graph F' (the skeleton plus one
vertex for the universal clique), whose nice decomposition each atom
builds once; every query of Tarjan's clique-cutset recursion forces the
classes it deletes entirely to label 0 and weighs each class by its
heaviest survivor.  Clique cutsets combine atom answers to the
whole graph (color permutation for coloring, Tarjan's reweighting for
stable sets).  Atoms without usable structure fall back to the brute-force
oracles under a size guard; beyond the guard the instance is reported
unsupported, never answered wrongly.  Returned answers are re-checked by
certify, which raises CertificateError under python -O too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .decomposition import Atom, DecompositionTree, clique_cutset_tree
from .graphs import Graph, induced_subgraph, vertex_set
from .oracles import InstanceTooLargeError, brute_solve, certify
from .treewidth import (DEFAULT_EXACT_BUDGET, NiceDecomposition,
                        TreeDecomposition, lift_tree_decomposition,
                        nice_decomposition)
from .twins import (SkeletonDecomposition, clique_number_via_skeleton,
                    max_clique_via_skeleton)


class UnsupportedInstanceError(RuntimeError):
    """The instance is outside the class and too large for brute force."""


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


def _canonical(key: tuple[int, ...]) -> tuple[int, ...]:
    """The key with its blocks renumbered 1, 2, ... in order of first
    appearance: one key per partition of the bag into color classes."""
    names: dict[int, int] = {}
    for c in key:
        if c not in names:
            names[c] = len(names) + 1
    # From a list: tuple() over an iterator of unknown length allocates room
    # for ten items and then shrinks, which can leave kept keys in larger
    # memory blocks.
    return tuple([names[c] for c in key])


def _nice_dp(graph: Graph, nd: NiceDecomposition,
             labels: Sequence[Sequence[int]], weights: Sequence[int]
             ) -> Optional[tuple[int, list[int]]]:
    """The heaviest labelling as (weight, label per vertex), or None.

    Vertex v takes a label from labels[v]; adjacent vertices never share a
    nonzero label; a vertex with a nonzero label adds weights[v], counted
    when it is forgotten.  Ties go to the labelling met first in the order
    of each labels[v].  A node's table is dropped once its parent is built:
    the traceback reads only the forget nodes' choices.

    When every labels[v] is the same list 1..q (q-coloring), labels are
    interchangeable and a key is kept only up to renaming them: the
    partition of the bag into color blocks, numbered 1, 2, ... in order of
    first appearance (_canonical).  Introduce puts v into each block with
    no neighbour of v, or into a fresh block while there are fewer than q;
    forget renumbers the shortened key; join matches equal partitions.  A
    table then holds at most the Bell number of the bag size in place of
    q to that power.  This is exact because the colors of forgotten
    vertices never meet a vertex introduced later: any coloring of the
    bag's blocks by distinct colors extends each side of the decomposition
    independently.  The traceback runs top-down and colors each vertex
    where it enters, at its forget node: v takes the color of a bag mate
    in its block, or, alone in its block, the least color that no other
    vertex of the child bag has.  One is free, since the child bag has at
    most q blocks, and every bag's blocks keep distinct colors.
    """
    q = len(labels[0]) if labels else 0
    colors_1_to_q = tuple(range(1, q + 1))
    interchangeable = all(tuple(lab) == colors_1_to_q for lab in labels)
    tables: list[Optional[dict]] = [None] * len(nd.nodes)
    choice: dict[int, dict] = {}
    for idx, node in enumerate(nd.nodes):
        kids = node.children
        if node.kind == "leaf":
            table = {(): 0}
        elif node.kind == "introduce":
            v = node.vertex
            pos = node.bag.index(v)
            nbr = [i for i, u in enumerate(nd.nodes[kids[0]].bag)
                   if graph.has_edge(u, v)]
            table = {}
            for key, value in tables[kids[0]].items():
                used = {key[i] for i in nbr}
                if interchangeable:
                    blocks = max(key, default=0)
                    for c in range(1, min(blocks + 1, q) + 1):
                        if c not in used:
                            table[_canonical(key[:pos] + (c,) + key[pos:])] \
                                = value
                else:
                    for c in labels[v]:
                        if not c or c not in used:
                            table[key[:pos] + (c,) + key[pos:]] = value
        elif node.kind == "forget":
            pos = nd.nodes[kids[0]].bag.index(node.vertex)
            w = weights[node.vertex]
            table = {}
            picked = choice[idx] = {}
            for key, value in tables[kids[0]].items():
                if key[pos]:
                    value += w
                short = key[:pos] + key[pos + 1:]
                if interchangeable:
                    short = _canonical(short)
                if short not in table or value > table[short]:
                    table[short] = value
                    picked[short] = key
        else:  # join
            right = tables[kids[1]]
            table = {key: value + right[key]
                     for key, value in tables[kids[0]].items()
                     if key in right}
        for kid in kids:
            tables[kid] = None
        if not table:
            return None
        tables[idx] = table
    labelling = [0] * graph.n
    stack = [(nd.root, ())]
    while stack:
        idx, key = stack.pop()
        node = nd.nodes[idx]
        if node.kind == "introduce":
            pos = node.bag.index(node.vertex)
            short = key[:pos] + key[pos + 1:]
            stack.append((node.children[0],
                          _canonical(short) if interchangeable else short))
        elif node.kind == "forget":
            key = choice[idx][key]
            bag = nd.nodes[node.children[0]].bag
            pos = bag.index(node.vertex)
            label = key[pos]
            if interchangeable:
                colors = {key[i]: labelling[u]
                          for i, u in enumerate(bag) if i != pos}
                label = colors.get(label) or min(
                    set(colors_1_to_q) - set(colors.values()))
            labelling[node.vertex] = label
            stack.append((node.children[0], key))
        elif node.kind == "join":
            stack.extend((kid, key) for kid in node.children)
    return tables[nd.root][()], labelling


def _color(graph: Graph, nd: NiceDecomposition, q: int
           ) -> Optional[list[int]]:
    """A proper q-coloring by the labelling DP, or None."""
    found = _nice_dp(graph, nd, [range(1, q + 1)] * graph.n, [0] * graph.n)
    if found is None:
        return None
    certify(is_proper_coloring(graph, found[1], q), "DP coloring not proper")
    return found[1]


def q_color(atom: Graph, td: TreeDecomposition, q: int
            ) -> Optional[list[int]]:
    """A proper q-coloring of the atom via DP over the decomposition's nice
    form, or None when no q-coloring exists."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if not td.is_valid(atom):
        raise ValueError("decomposition is not valid for the graph")
    return _color(atom, nice_decomposition(td), q)


def combine_colorings(tree: DecompositionTree,
                      atom_colorings: Sequence[dict[int, int]],
                      q: int) -> list[int]:
    """Merge per-atom colorings into a proper coloring of the whole graph.

    atom_colorings aligns with tree.leaves().  At every internal node the
    split-off atom's colors are permuted to agree with the rest of the
    graph on the cutset clique (whose colors are pairwise distinct, so a
    permutation always exists).
    """
    leaves = tree.leaves()
    if len(atom_colorings) != len(leaves):
        raise ValueError("need one coloring per decomposition leaf")
    for leaf, coloring in zip(leaves, atom_colorings):
        if set(coloring) != set(leaf.vertices):
            raise ValueError("coloring does not match its atom")
        if any(not 1 <= c <= q for c in coloring.values()):
            raise ValueError(f"atom coloring exceeds {q} colors")
    # Bottom-up along the spine: each split-off atom's colors are permuted
    # to agree with the graph below it.
    total = dict(atom_colorings[-1])
    for node, coloring in zip(reversed(tree.internal_nodes()),
                              reversed(atom_colorings[:-1])):
        perm = {coloring[v]: total[v] for v in node.cutset}
        free = iter(c for c in range(1, q + 1) if c not in perm.values())
        for c in range(1, q + 1):
            if c not in perm:
                perm[c] = next(free)
        total.update((v, perm[c]) for v, c in coloring.items())
    colors = [total[v] for v in tree.graph.vertices()]
    certify(is_proper_coloring(tree.graph, colors, q),
            "merged coloring not proper")
    return colors


def _color_atom(atom: Atom, qs: range, brute_guard: Optional[int]
                ) -> Optional[tuple[int, list[int]]]:
    """(q, coloring) for the least q in qs at which the labelling DP over
    the lifted decomposition colors a structured atom, None when qs is
    used up.  Complete atoms and atoms without structure get their
    chromatic number, the latter by brute force under the guard."""
    if atom.complete:
        return atom.graph.n, list(range(1, atom.graph.n + 1))
    if atom.sd is None:
        result = _brute_or_unsupported(atom.graph, "chromatic", brute_guard)
        return result.value, list(result.witness)
    lifted = lift_tree_decomposition(atom.skeleton_td, atom.sd)
    assert lifted.is_valid(atom.graph)
    nd = nice_decomposition(lifted)
    for q in qs:
        colors = _color(atom.graph, nd, q)
        if colors is not None:
            return q, colors
    return None


def _brute_or_unsupported(g: Graph, problem: str, guard: Optional[int]):
    try:
        return brute_solve(g, problem, guard)
    except InstanceTooLargeError as exc:
        raise UnsupportedInstanceError(
            f"atom is outside the class and beyond the {problem} "
            f"brute-force guard ({exc})") from exc


def chromatic_number(g: Graph, brute_guard: Optional[int] = None,
                     exact_budget: int = DEFAULT_EXACT_BUDGET
                     ) -> tuple[int, list[int]]:
    """Exact chromatic number with a proper coloring.

    Per atom: the minimum q in [omega, ceil(3/2 omega)] for which the
    q-coloring DP over the lifted decomposition succeeds.  Atoms without
    class structure, or whose search range is exhausted (which proves the
    atom is outside the class), use the brute oracle under the guard.
    The DP keys each bag by its partition into at most q color classes,
    not by a color per vertex.  Lifted bags hold whole twin classes, so
    the key counts still grow quickly with the class sizes: C5 blown up
    by 3 takes milliseconds, by 5 seconds and by 6 tens of seconds.
    """
    if g.n == 0:
        return 0, []
    tree = clique_cutset_tree(g)
    per_leaf: list[dict[int, int]] = []
    chi = 1
    for leaf in tree.leaves():
        atom = Atom(g, leaf.vertices, exact_budget)
        omega = (0 if atom.sd is None
                 else clique_number_via_skeleton(atom.sd))
        found = _color_atom(atom, range(omega, ceil_three_halves(omega) + 1),
                            brute_guard)
        if found is None:
            result = _brute_or_unsupported(atom.graph, "chromatic",
                                           brute_guard)
            found = result.value, list(result.witness)
        chi = max(chi, found[0])
        per_leaf.append(dict(zip(atom.back, found[1])))
    coloring = combine_colorings(tree, per_leaf, chi)
    return chi, coloring


def q_color_graph(g: Graph, q: int, brute_guard: Optional[int] = None,
                  exact_budget: int = DEFAULT_EXACT_BUDGET
                  ) -> Optional[list[int]]:
    """A proper q-coloring of the whole graph, or None.

    The graph is q-colorable iff every atom is; atom colorings are merged
    along the cutsets."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if g.n == 0:
        return []
    tree = clique_cutset_tree(g)
    per_leaf = []
    for leaf in tree.leaves():
        atom = Atom(g, leaf.vertices, exact_budget)
        found = _color_atom(atom, range(q, q + 1), brute_guard)
        if found is None or found[0] > q:
            return None
        per_leaf.append(dict(zip(atom.back, found[1])))
    return combine_colorings(tree, per_leaf, q)


def clique_number(g: Graph, brute_guard: Optional[int] = None
                  ) -> tuple[int, tuple[int, ...]]:
    """omega with a witness clique, through the skeleton structure.

    Complete atoms contribute themselves; atoms with a skeleton contribute
    the universal clique plus the heaviest class or adjacent class pair
    (exact for any blow-up of a triangle-free skeleton, so no tree
    decomposition is built); other atoms fall back to the brute oracle
    under the guard."""
    best = 0
    witness: tuple[int, ...] = ()
    for leaf in clique_cutset_tree(g).leaves():
        atom = Atom(g, leaf.vertices)
        if atom.complete:
            value, local = atom.graph.n, tuple(atom.graph.vertices())
        elif isinstance(atom.extracted, SkeletonDecomposition):
            local = max_clique_via_skeleton(atom.extracted)
            value = len(local)
        else:
            result = _brute_or_unsupported(atom.graph, "max-clique",
                                           brute_guard)
            value, local = result.value, result.witness
        certify(atom.graph.is_clique(local) and len(local) == value,
                "clique witness failed re-check")
        if value > best:
            best = value
            witness = vertex_set(atom.back[v] for v in local)
    return best, witness


@dataclass(frozen=True)
class StableSetResult:
    vertices: tuple[int, ...]
    weight: int


def reduce_to_skeleton_weights(atom: Graph, sd: SkeletonDecomposition,
                               weights: Sequence[int]
                               ) -> tuple[Graph, tuple[int, ...]]:
    """The weighted reduction graph F' and its representative map.

    F' is the skeleton plus one universal vertex when the universal clique
    is nonempty.  Each F' vertex carries the maximum weight of its class
    (ties to the minimum vertex id); the maximum stable-set weight of F'
    equals the atom's.
    """
    if atom != sd.atom:
        raise ValueError("skeleton decomposition does not describe the atom")
    reps: list[int] = []
    wts: list[int] = []
    for cls in sd.classes:
        best = min(cls, key=lambda v: -weights[v])
        reps.append(best)
        wts.append(weights[best])
    edges = sd.skeleton.edges()
    n = sd.skeleton.n
    if sd.universal:
        best = min(sd.universal, key=lambda v: -weights[v])
        edges.extend((v, n) for v in range(n))
        reps.append(best)
        wts.append(weights[best])
        n += 1
    return Graph(n, edges, wts), tuple(reps)


class _AtomSolver:
    """Stable-set subproblem solver for one atom.

    A structured atom builds F' and its nice decomposition once: the
    skeleton's width-5 decomposition with F''s universal vertex in every
    bag (width at most 6).  Each query runs the labelling DP on it with
    labels {0, 1}, classes left without a vertex forced to label 0, and
    each class weighted by its heaviest survivor.  Unstructured atoms fall
    back to brute force under the guard.  Queries delete a vertex set X
    (the cutset, or a closed neighborhood) and take current weights.
    """

    def __init__(self, atom: Atom, brute_guard: Optional[int]):
        self.atom = atom
        self.brute_guard = brute_guard
        self.local_of = {r: i for i, r in enumerate(atom.back)}
        if atom.sd is not None:
            self.reduced = reduce_to_skeleton_weights(
                atom.graph, atom.sd, atom.graph.weights)[0]
            bags = atom.skeleton_td.bags
            if atom.sd.universal:
                bags = tuple(bag + (atom.sd.skeleton.n,) for bag in bags)
            self.nice = nice_decomposition(
                TreeDecomposition(bags, atom.skeleton_td.edges))

    def solve(self, deleted_roots: set[int], weights: Sequence[int]
              ) -> tuple[int, tuple[int, ...]]:
        """Best stable set of atom minus the deleted vertices; returns
        (weight, root-id vertex tuple)."""
        atom = self.atom
        deleted = {self.local_of[r] for r in deleted_roots
                   if r in self.local_of}
        survivors = [v for v in atom.graph.vertices() if v not in deleted]
        if not survivors:
            return 0, ()
        local_w = {v: weights[atom.back[v]] for v in survivors}
        if atom.complete:
            best = max(survivors, key=lambda v: (local_w[v], -v))
            if local_w[best] <= 0:
                return 0, ()
            return local_w[best], (atom.back[best],)
        if atom.sd is None:
            sub, sub_back = induced_subgraph(atom.graph, survivors)
            weighted = sub.with_weights([local_w[v] for v in survivors])
            res = _brute_or_unsupported(weighted, "mwss", self.brute_guard)
            return res.value, vertex_set(atom.back[sub_back[v]]
                                         for v in res.witness)
        return self._solve_structured(deleted, local_w)

    def _solve_structured(self, deleted: set[int], local_w: dict[int, int]
                          ) -> tuple[int, tuple[int, ...]]:
        sd = self.atom.sd
        universal_left = [v for v in sd.universal if v not in deleted]
        self._assert_restriction(sd, deleted, universal_left)
        reps: list[Optional[int]] = []
        labels: list[tuple[int, ...]] = []
        wts: list[int] = []
        for cls in sd.classes + ((sd.universal,) if sd.universal else ()):
            alive = [v for v in cls if v not in deleted]
            best = min(alive, key=lambda v: -local_w[v]) if alive else None
            reps.append(best)
            labels.append((0, 1) if alive else (0,))
            wts.append(local_w[best] if alive else 0)
        value, labelling = _nice_dp(self.reduced, self.nice, labels, wts)
        picked = [reps[j] for j, c in enumerate(labelling) if c]
        certify(None not in picked and self.atom.graph.is_stable(picked)
                and sum(local_w[v] for v in picked) == value,
                "DP stable set failed re-check")
        return value, vertex_set(self.atom.back[v] for v in picked)

    def _assert_restriction(self, sd, deleted, universal_left):
        """Restriction soundness: surviving class members stay true twins
        and surviving universal vertices stay universal."""
        graph = self.atom.graph
        alive_mask = 0
        for v in graph.vertices():
            if v not in deleted:
                alive_mask |= 1 << v
        for v in universal_left:
            assert (graph.mask(v) | 1 << v) & alive_mask == alive_mask
        for cls in sd.classes:
            alive = [v for v in cls if v not in deleted]
            masks = {(graph.mask(v) | 1 << v) & alive_mask for v in alive}
            assert len(masks) <= 1, "restricted class is not a twin class"


def mwss(g: Graph, weights: Optional[Sequence[int]] = None,
         brute_guard: Optional[int] = None,
         exact_budget: int = DEFAULT_EXACT_BUDGET) -> StableSetResult:
    """Maximum weight stable set via top-down clique-cutset recursion.

    At each internal node with cutset S and atom side A: solve A minus S
    and A minus each closed neighborhood N[v] (v in S), reweight S by
    w'(v) = w(v) + w(I_v) - w(I'), recurse on the other side, and combine.
    The reweighting never increases a weight (asserted).
    """
    base = list(weights) if weights is not None else list(g.weights)
    if len(base) != g.n:
        raise ValueError("weights length must equal vertex count")
    # Top-down along the spine: solve each split-off atom, reweight its
    # cutset for the graph below and record how to lift that graph's answer.
    node = clique_cutset_tree(g).root
    w = base
    lifts = []
    while not node.is_leaf:
        cut = node.cutset
        solver = _AtomSolver(Atom(g, node.left.vertices, exact_budget),
                             brute_guard)
        base_value, base_set = solver.solve(set(cut), w)
        sub_sets = {}
        w2 = list(w)
        for v in cut:
            closed = {v} | {u for u in g.adj[v]}
            value_v, sub_sets[v] = solver.solve(closed, w)
            w2[v] = w[v] + value_v - base_value
            assert w2[v] <= w[v], "reweighting must not increase a weight"
        lifts.append((cut, base_value, base_set, sub_sets))
        node, w = node.right, w2
    atom = Atom(g, node.vertices, exact_budget)
    value, picked = _AtomSolver(atom, brute_guard).solve(set(), w)
    picked = set(picked)
    # Bottom-up: since w2[v] = w[v] + value_v - base_value, the total is
    # base_value plus the answer below whether or not that answer takes a
    # cutset vertex v.
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
