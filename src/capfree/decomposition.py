"""Clique-cutset decomposition into a caterpillar: each internal node
splits off one atom.

The cutset search is the Atoms algorithm (Berry, Pogorelcnik & Simonet
2010): one MCS-M pass over the whole graph gives a minimal triangulation
and its generators, whose later fill-neighbourhoods are its minimal
separators; scanned in elimination order, each one that is a clique of
the graph splits off an atom.  The empty set is a clique, so the same scan
splits a disconnected graph into its components.  find_clique_cutset
returns the first split of the scan on a connected graph.

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


def find_clique_cutset(g: Graph
                       ) -> Optional[tuple[tuple[int, ...],
                                           tuple[tuple[int, ...],
                                                 tuple[int, ...]]]]:
    """A clique cutset with the two-sided split, or None if no cutset exists.

    Returns (K, (H1, H2)) with H1, H2 the nonempty sides of G minus K.
    Disconnected graphs yield K = (), H1 the component of vertex 0 and H2
    the rest.  Otherwise K is the first clique minimal separator the atom
    scan of clique_cutset_tree splits along, and H1 is the side it splits
    off.
    """
    if g.n:
        everything = set(g.vertices())
        first = _component_of(g, 0, set(), everything)
        if len(first) < g.n:
            return (), (vertex_set(first), vertex_set(everything - first))
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
    """A caterpillar: every internal node's left child is a leaf, the atom
    it splits off, and its right child is the rest of its graph.  The
    internal nodes form a spine from the root down the right children,
    which ends at the last atom."""
    graph: Graph
    root: DecompositionNode

    def leaves(self) -> list[DecompositionNode]:
        """Leaves in left-to-right order: each spine node's atom from the
        root down, then the last atom."""
        out = []
        node = self.root
        while not node.is_leaf:
            out.append(node.left)
            node = node.right
        out.append(node)
        return out

    def atoms(self) -> list[tuple[int, ...]]:
        return [leaf.vertices for leaf in self.leaves()]

    def internal_nodes(self) -> list[DecompositionNode]:
        """The spine from the root down."""
        out = []
        node = self.root
        while not node.is_leaf:
            out.append(node)
            node = node.right
        return out


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
    """Decompose g with one atom scan: the i-th spine node splits off the
    i-th atom of _tarjan_pieces along its cutset, so a connected graph has
    at most n-1 leaves.  On a disconnected graph the components split along
    empty cutsets, the last component by least vertex first."""
    pieces = list(_tarjan_pieces(g))
    node = DecompositionNode(pieces[-1][1])
    covered = set(node.vertices)
    for cutset, atom in reversed(pieces[:-1]):
        covered.update(atom)
        node = DecompositionNode(tuple(sorted(covered)), cutset,
                                 DecompositionNode(atom), node)
    return DecompositionTree(g, node)


def _tarjan_pieces(g: Graph) -> Iterator[tuple[tuple[int, ...],
                                             tuple[int, ...]]]:
    """The Atoms algorithm of Berry, Pogorelcnik & Simonet (2010): yields
    (cutset, atom) for every split, then ((), last atom).  The last atom
    lies in vertex 0's component; every other component ends with a split
    along the empty cutset.

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

    Nodes are numbered in preorder: spine node i is n(2i), its atom
    n(2i+1), and the last atom n(2s) for a spine of s nodes.  Each tree
    edge is written after the child's whole subtree, so the spine edges
    come last, from the bottom up."""
    def atom_line(i: int, leaf: DecompositionNode) -> str:
        return f'  n{i} [label="atom |{len(leaf.vertices)}|", shape=box];'

    lines = ["graph decomposition {"]
    spine = tree.internal_nodes()
    for i, node in enumerate(spine):
        cut = ",".join(str(v + 1) for v in node.cutset) or "empty"
        lines += [f'  n{2 * i} [label="cutset {{{cut}}}"];',
                  atom_line(2 * i + 1, node.left),
                  f"  n{2 * i} -- n{2 * i + 1};"]
    lines.append(atom_line(2 * len(spine), tree.leaves()[-1]))
    lines += [f"  n{2 * i} -- n{2 * i + 2};"
              for i in reversed(range(len(spine)))]
    lines.append("}")
    return "\n".join(lines) + "\n"
