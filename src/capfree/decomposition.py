"""Clique-cutset decomposition into a binary tree with atom leaves.

The cutset search is the Atoms algorithm (Berry, Pogorelcnik & Simonet
2010): one MCS-M pass gives a minimal triangulation and its generators,
whose later fill-neighbourhoods are its minimal separators; scanned in
elimination order, each one that is a clique of the graph splits off an
atom.  find_clique_cutset returns the first split of the same scan.

Each leaf of the tree is read through one Atom record: the induced atom,
its skeleton extraction, and on first use the skeleton's width-5 tree
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .graphs import Graph, induced_subgraph, vertex_set
from .treewidth import (DEFAULT_EXACT_BUDGET, SearchBudgetExceeded,
                        TreeDecomposition, TreewidthReject, mcs_m,
                        skeleton_tree_decomposition)
from .twins import (COMPLETE_ATOM, ExtractResult, SkeletonDecomposition,
                    extract_skeleton)


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


def find_clique_cutset(g: Graph
                       ) -> Optional[tuple[tuple[int, ...],
                                           tuple[tuple[int, ...],
                                                 tuple[int, ...]]]]:
    """A clique cutset with the two-sided split, or None if no cutset exists.

    Returns (K, (H1, H2)) with H1, H2 the nonempty sides of G minus K.
    Disconnected graphs yield K = () and the component split.  Otherwise K
    is the first clique minimal separator the atom scan of clique_cutset_tree
    splits along, and H1 is the side it splits off.
    """
    comps = _components(g)
    if len(comps) > 1:
        return (), (tuple(comps[0]),
                    vertex_set(v for c in comps[1:] for v in c))
    cutset, atom = next(_tarjan_pieces(g))
    if not cutset:
        return None
    side = set(atom) - set(cutset)
    return cutset, (vertex_set(side),
                    vertex_set(set(g.vertices()) - set(atom)))


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
    pieces = list(_tarjan_pieces(sub))
    node = DecompositionNode(vertex_set(back[v] for v in pieces[-1][1]))
    for cutset, atom in reversed(pieces[:-1]):
        atom_vs = vertex_set(back[v] for v in atom)
        node = DecompositionNode(
            vertex_set(set(atom_vs) | set(node.vertices)),
            vertex_set(back[v] for v in cutset),
            DecompositionNode(atom_vs), node)
    return node


def _tarjan_pieces(g: Graph) -> Iterator[tuple[tuple[int, ...],
                                             tuple[int, ...]]]:
    """The Atoms algorithm of Berry, Pogorelcnik & Simonet (2010) on a
    connected graph: yields (cutset, atom) for every split, then
    ((), last atom).

    The MCS-M generators are scanned in elimination order; a generator x
    whose madj(x), a minimal separator of the minimal triangulation H, is
    a clique of g splits off x's component of the rest.  In H, that
    component lies below x in elimination order, and every later
    generator, with its madj, lies above x, so neither was split off yet.
    """
    _, madj, generators = mcs_m(g.adj)
    alive = set(g.vertices())
    for x in generators:
        if g.is_clique(madj[x]):
            side = _component_of(g, x, madj[x], alive)
            yield vertex_set(madj[x]), vertex_set(side | madj[x])
            alive -= side
    yield (), vertex_set(alive)


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
