"""Clique-cutset decomposition into a binary tree with atom leaves.

The cutset search follows Tarjan's scheme: compute a minimal elimination
ordering (LEX-M), then test each vertex's later-neighborhood in the fill
graph.  One test serves both find_clique_cutset and the tree: a candidate
is used when it is a clique and a minimal separator of the current graph.
Some candidate passes whenever the graph has a clique cutset (Tarjan 1985),
so if none passes, the graph has none.

Each leaf of the tree is read through one Atom record: the induced atom,
its skeleton extraction, and on first use the skeleton's width-5 tree
decomposition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import Graph, induced_subgraph, vertex_set
from .treewidth import (DEFAULT_EXACT_BUDGET, SearchBudgetExceeded,
                        TreeDecomposition, TreewidthReject,
                        skeleton_tree_decomposition)
from .twins import (COMPLETE_ATOM, ExtractResult, SkeletonDecomposition,
                    extract_skeleton)


def _lex_m(g: Graph) -> tuple[list[int], list[set[int]]]:
    """Minimal elimination ordering and its fill graph.

    Returns (order, fill_adj) where order lists vertices in elimination
    order and fill_adj is the adjacency of the minimal triangulation.
    """
    n = g.n
    label: list[tuple[int, ...]] = [()] * n
    numbered = [False] * n
    order = [0] * n
    fill = [set(g.adj[v]) for v in range(n)]
    for i in range(n, 0, -1):
        v = max((u for u in range(n) if not numbered[u]),
                key=lambda u: (label[u], -u))
        numbered[v] = True
        order[i - 1] = v
        for u in _lexm_reach(g, v, numbered, label):
            fill[u].add(v)
            fill[v].add(u)
            label[u] = label[u] + (i,)
    return order, fill


def _lexm_reach(g: Graph, v: int, numbered: list[bool],
                label: list[tuple[int, ...]]) -> list[int]:
    """Unnumbered u reachable from v through strictly smaller-labelled,
    unnumbered interior vertices (minimax search over label ranks)."""
    ranks: dict[int, int] = {}
    distinct = sorted({label[u] for u in range(g.n) if not numbered[u]})
    rank_of = {lab: r for r, lab in enumerate(distinct)}
    for u in range(g.n):
        if not numbered[u]:
            ranks[u] = rank_of[label[u]]
    bottleneck: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for u in g.adj[v]:
        if u in ranks:
            bottleneck[u] = -1
            heapq.heappush(heap, (-1, u))
    while heap:
        b, u = heapq.heappop(heap)
        if b != bottleneck.get(u):
            continue
        through = max(b, ranks[u])
        for z in g.adj[u]:
            if z in ranks and through < bottleneck.get(z, len(distinct) + 1):
                bottleneck[z] = through
                heapq.heappush(heap, (through, z))
    return [u for u, b in sorted(bottleneck.items()) if b < ranks[u]]


def _component_of(g: Graph, start: int, excluded: set[int],
                  alive: set[int]) -> set[int]:
    """Vertices of g[alive] minus excluded reachable from start."""
    comp = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in alive and u not in comp and u not in excluded:
                comp.add(u)
                stack.append(u)
    return comp


def _components(g: Graph) -> list[list[int]]:
    everything = set(g.vertices())
    seen: set[int] = set()
    out = []
    for v in g.vertices():
        if v not in seen:
            comp = sorted(_component_of(g, v, set(), everything))
            seen.update(comp)
            out.append(comp)
    return out


def _clique_separator(g: Graph, v: int, fill: list[set[int]],
                      position: dict[int, int], alive: set[int]
                      ) -> Optional[tuple[tuple[int, ...], set[int]]]:
    """(K, side) when v's later fill-neighborhood K is a clique minimal
    separator of g[alive] (at least two components of g[alive] minus K see
    all of K), side being v's component; None otherwise.

    By Tarjan (1985) some candidate K of a minimal elimination ordering is
    a clique minimal separator whenever g[alive] has a clique cutset.
    """
    cand = vertex_set(u for u in fill[v] if position[u] > position[v])
    if any(u not in alive for u in cand) or not g.is_clique(cand):
        return None
    sep = set(cand)
    side = _component_of(g, v, sep, alive)
    if len(side) + len(sep) == len(alive):
        return None
    full = 0
    seen: set[int] = set()
    for u in alive - sep:
        if u in seen:
            continue
        comp = _component_of(g, u, sep, alive)
        seen |= comp
        if sep == {w for x in comp for w in g.adj[x] if w in sep}:
            full += 1
            if full == 2:
                return cand, side
    return None


def find_clique_cutset(g: Graph
                       ) -> Optional[tuple[tuple[int, ...],
                                           tuple[tuple[int, ...],
                                                 tuple[int, ...]]]]:
    """A clique cutset with the two-sided split, or None if no cutset exists.

    Returns (K, (H1, H2)) with H1, H2 the nonempty sides of G minus K.
    Disconnected graphs yield K = () and the component split.  Otherwise K
    is always a clique minimal separator: the first, in ascending vertex
    order, of the candidates (later fill-neighborhoods under a minimal
    elimination ordering) that is one.
    """
    comps = _components(g)
    if len(comps) > 1:
        return (), (tuple(comps[0]),
                    vertex_set(v for c in comps[1:] for v in c))
    if g.n <= 2:
        return None
    order, fill = _lex_m(g)
    position = {v: i for i, v in enumerate(order)}
    everything = set(g.vertices())
    for v in range(g.n):
        found = _clique_separator(g, v, fill, position, everything)
        if found is not None:
            cand, side = found
            rest = vertex_set(everything - side - set(cand))
            return cand, (vertex_set(side), rest)
    return None


@dataclass(frozen=True)
class DecompositionNode:
    """Node of the decomposition tree over root-graph vertex ids."""
    vertices: tuple[int, ...]
    cutset: Optional[tuple[int, ...]] = None
    left: Optional["DecompositionNode"] = None
    right: Optional["DecompositionNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.cutset is None


@dataclass(frozen=True)
class DecompositionTree:
    graph: Graph
    root: DecompositionNode

    def _preorder(self) -> list[DecompositionNode]:
        """All nodes, each before its left and then its right subtree."""
        out: list[DecompositionNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        return out

    def leaves(self) -> list[DecompositionNode]:
        """Leaves in left-to-right order."""
        return [node for node in self._preorder() if node.is_leaf]

    def atoms(self) -> list[tuple[int, ...]]:
        return [leaf.vertices for leaf in self.leaves()]

    def internal_nodes(self) -> list[DecompositionNode]:
        return [node for node in self._preorder() if not node.is_leaf]


class Atom:
    """One leaf of clique_cutset_tree: the atom root[vertices] (relabelled
    0..k-1, back mapping to root ids) and what extract_skeleton returned.

    skeleton_td, the skeleton's width-5 tree decomposition, is built on
    first use; it is None when there is no skeleton, the width exceeds 5,
    or the exact search runs out of exact_budget.  sd is the skeleton
    decomposition when skeleton_td exists, None otherwise.
    """

    def __init__(self, root: Graph, vertices: tuple[int, ...],
                 exact_budget: int = DEFAULT_EXACT_BUDGET):
        self.vertices = vertices
        self.graph, self.back = induced_subgraph(root, vertices)
        self.extracted: ExtractResult = extract_skeleton(self.graph)
        self.complete = self.extracted == COMPLETE_ATOM
        self.exact_budget = exact_budget

    @cached_property
    def skeleton_td(self) -> Optional[TreeDecomposition]:
        if not isinstance(self.extracted, SkeletonDecomposition):
            return None
        try:
            td = skeleton_tree_decomposition(self.extracted.skeleton,
                                             self.exact_budget)
        except SearchBudgetExceeded:
            return None
        return None if isinstance(td, TreewidthReject) else td

    @property
    def sd(self) -> Optional[SkeletonDecomposition]:
        return None if self.skeleton_td is None else self.extracted


def clique_cutset_tree(g: Graph) -> DecompositionTree:
    """Decompose g; every internal node splits off one atom as its left
    child, so the tree is a caterpillar with at most n-1 leaves on
    connected inputs.  A disconnected graph first splits off its
    components in order of their least vertex, each along an empty
    cutset."""
    comps = _components(g) or [[]]
    node = _component_tree(g, comps[-1])
    covered = set(comps[-1])
    for comp in reversed(comps[:-1]):
        covered.update(comp)
        node = DecompositionNode(vertex_set(covered), (),
                                 _component_tree(g, comp), node)
    return DecompositionTree(g, node)


def _component_tree(root: Graph, vs: list[int]) -> DecompositionNode:
    """The caterpillar of the connected subgraph root[vs]."""
    sub, back = induced_subgraph(root, vs)
    pieces = _tarjan_pieces(sub)
    node = DecompositionNode(vertex_set(back[v] for v in pieces[-1][1]))
    for cutset, atom in reversed(pieces[:-1]):
        atom_vs = vertex_set(back[v] for v in atom)
        node = DecompositionNode(
            vertex_set(set(atom_vs) | set(node.vertices)),
            vertex_set(back[v] for v in cutset),
            DecompositionNode(atom_vs), node)
    return node


def _tarjan_pieces(g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Scan a connected graph in minimal elimination order, splitting off an
    atom at every step; the final piece is the last atom.

    A candidate later-fill-neighborhood is used only when it is a clique
    and a minimal separator of the current graph (two full components);
    this keeps the leaves exactly the maximal cutset-free subgraphs.
    Returns [(cutset, atom), ..., ((), final_atom)].
    """
    order, fill = _lex_m(g)
    position = {v: i for i, v in enumerate(order)}
    alive = set(g.vertices())
    pieces: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for v in order:
        if v not in alive:
            continue
        found = _clique_separator(g, v, fill, position, alive)
        if found is None:
            continue
        cand, side = found
        pieces.append((cand, vertex_set(side | set(cand))))
        alive -= side
    pieces.append(((), vertex_set(alive)))
    return pieces


def tree_to_dot(tree: DecompositionTree) -> str:
    """DOT rendering: internal nodes show the cutset, leaves the atom size.

    Nodes are numbered in preorder; each tree edge is written after the
    child's whole subtree."""
    lines = ["graph decomposition {"]
    next_id = 0
    stack: list = [(tree.root, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent_id = item
        my_id = next_id
        next_id += 1
        if node.is_leaf:
            lines.append(f'  n{my_id} [label="atom |{len(node.vertices)}|"'
                         f", shape=box];")
        else:
            cut = ",".join(str(v + 1) for v in node.cutset) or "empty"
            lines.append(f'  n{my_id} [label="cutset {{{cut}}}"];')
        if parent_id is not None:
            stack.append(f"  n{parent_id} -- n{my_id};")
        if not node.is_leaf:
            stack.extend(((node.right, my_id), (node.left, my_id)))
    lines.append("}")
    return "\n".join(lines) + "\n"
