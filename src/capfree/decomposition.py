"""Clique-cutset decomposition into a caterpillar: each internal node
splits off one atom.

A cut vertex is a clique cutset, so the atoms of a graph are those of its
blocks, which one depth-first search finds (Hopcroft & Tarjan 1973).  A
block that is K1, K2 or a cycle is one atom.  Any other block goes through
the Atoms algorithm (Berry, Pogorelcnik & Simonet 2010) on its quotient,
on integer neighbour masks: one MCS-M pass gives a minimal triangulation,
whose minimal separators are its generators' later fill-neighbourhoods;
scanned in elimination order, each that is a clique splits off an atom.
The quotient merges what no clique minimal separator of the block splits:
a thread, a maximal run of degree-2 vertices, becomes one vertex, and so
does each class of true twins of the block.  An in-class atom is a clique
blow-up of a skeleton plus a universal clique, so its quotient is the
skeleton plus one vertex: a blown-up hole is answered as a cycle with no
scan.  A quotient that is a clique or a cycle is one atom.  The blocks
come leaf-first along the block-cut tree, each split off along its parent
cut vertex.  The tree is the scan's (cutset, atom) pieces in leaf order;
its nested node view is built only when read.

decompose gives the tree and its leaves' Atom records, each built when
reached: completeness from the root's masks, and for a non-complete atom
the induced atom and its skeleton extraction; on first use the nice form
of the min-fill decomposition of the atom's twin quotient, at any width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .graphs import (Graph, induced_subgraph, mask_members, mask_of, reach,
                     vertex_set)
from .oracles import (DEFAULT_BUDGET, BruteResult, SearchBudgetExceeded,
                      brute_solve)
from .treewidth import (NiceDecomposition, mcs_m, min_fill_decomposition,
                        nice_decomposition)
from .twins import COMPLETE_ATOM, ExtractResult, extract_skeleton


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
        everything = (1 << g.n) - 1
        first = reach([g.mask(v) for v in g.vertices()], 1, everything)
        if first != everything:
            return (), (tuple(mask_members(first)),
                        tuple(mask_members(everything ^ first)))
    cutset, atom = next(_tarjan_pieces(g))
    if not cutset:
        return None
    side = set(atom) - set(cutset)
    return cutset, (vertex_set(side),
                    vertex_set(set(g.vertices()) - set(atom)))


@dataclass(frozen=True)
class DecompositionNode:
    """Node of the decomposition tree over root-graph vertex ids.  A leaf
    holds its atom; an internal node gathers its vertices, the union of
    the atoms below it, by a walk down the spine on first read.  Equality,
    hash and repr are structural, as a dataclass's, but walk the tree on
    a stack, so a spine of any length stays within the recursion limit."""
    atom: Optional[tuple[int, ...]]
    cutset: Optional[tuple[int, ...]] = None
    left: Optional["DecompositionNode"] = None
    right: Optional["DecompositionNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.cutset is None

    def _preorder(self) -> Iterator[Optional[tuple]]:
        """(atom, cutset) of each node in preorder, None for a missing
        child: a form that tells the tree apart from every other."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node is None:
                yield None
            else:
                yield node.atom, node.cutset
                stack += [node.right, node.left]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return list(self._preorder()) == list(other._preorder())

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item is None:
                out.append("None")
            else:
                out.append(f"{type(item).__qualname__}(atom={item.atom!r}, "
                           f"cutset={item.cutset!r}, left=")
                stack += [")", item.right, ", right=", item.left]
        return "".join(out)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        below, node = set(), self
        while not node.is_leaf:
            below.update(node.left.atom)
            node = node.right
        return vertex_set(below.union(node.atom))


@dataclass(frozen=True)
class DecompositionTree:
    """A caterpillar, held as its pieces: the (cutset, atom) pairs in leaf
    order, the last with cutset ().  The i-th spine node splits off the
    i-th atom along its cutset, and the spine ends at the last atom.  root,
    the nested node view of the spine, is built on first read and kept out
    of pickles and copies."""
    graph: Graph
    pieces: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @cached_property
    def root(self) -> DecompositionNode:
        node = DecompositionNode(self.pieces[-1][1])
        for cutset, atom in reversed(self.pieces[:-1]):
            node = DecompositionNode(None, cutset, DecompositionNode(atom),
                                     node)
        return node

    def __getstate__(self) -> dict:
        return {"graph": self.graph, "pieces": self.pieces}

    def leaves(self) -> list[DecompositionNode]:
        """Leaves in left-to-right order: each spine node's atom from the
        root down, then the last atom."""
        spine = self.internal_nodes()
        return [node.left for node in spine] + [
            spine[-1].right if spine else self.root]

    def atoms(self) -> list[tuple[int, ...]]:
        return [atom for _, atom in self.pieces]

    def internal_nodes(self) -> list[DecompositionNode]:
        """The spine from the root down."""
        out = []
        node = self.root
        while not node.is_leaf:
            out.append(node)
            node = node.right
        return out


class UnsupportedInstanceError(SearchBudgetExceeded):
    """A solver's work on an atom ran out of its budget: the DP over the
    atom's decomposition, or a brute-force search where one serves.  The
    message names each search that ran out and its budget."""


class Atom:
    """One leaf of clique_cutset_tree, as decompose builds it: the root
    vertices of the atom, their mask, whether the atom is complete, and
    what extract_skeleton returns for it.

    Completeness is read off the root's masks: every vertex's closed
    neighbourhood holds the atom's mask.  A complete atom needs nothing
    more, so it builds no graph and runs no extraction; extracted is
    COMPLETE_ATOM.  graph is the atom root[vertices], relabelled so that
    local vertex v is vertices[v] (root itself when the atom spans it),
    built on first read: at once for a non-complete atom, which
    extract_skeleton reads.

    For any other atom, extracted, a SkeletonDecomposition or a
    SkeletonReject, gives the twin quotient, its classes and universal
    clique; nice, built on first use, is the nice form of the quotient's
    min-fill tree decomposition at any width, which both DPs read.  The
    DPs and brute count their work against budget.
    """

    def __init__(self, root: Graph, vertices: tuple[int, ...], budget: int):
        self.root = root
        self.vertices = vertices
        self.mask = mask = mask_of(vertices)
        self.complete = all((root.mask(v) | 1 << v) & mask == mask
                            for v in vertices)
        self.extracted: ExtractResult = (
            COMPLETE_ATOM if self.complete else extract_skeleton(self.graph))
        self.budget = budget

    @cached_property
    def graph(self) -> Graph:
        if len(self.vertices) == self.root.n:
            return self.root
        return induced_subgraph(self.root, self.vertices)[0]

    @cached_property
    def nice(self) -> Optional[NiceDecomposition]:
        return None if self.complete else nice_decomposition(
            min_fill_decomposition(self.extracted.quotient))

    def brute(self, problem: str, reason: str) -> BruteResult:
        """brute_solve of problem on the atom under budget.  Past it,
        UnsupportedInstanceError gives reason, why brute force ran, and
        names the search that ran out."""
        try:
            return brute_solve(self.graph, problem, budget=self.budget)
        except SearchBudgetExceeded as exc:
            raise UnsupportedInstanceError(f"{reason}; {exc}") from exc


def decompose(g: Graph, *, budget: int = DEFAULT_BUDGET
              ) -> tuple[DecompositionTree, Iterator[Atom]]:
    """clique_cutset_tree(g) and the Atom records of its leaves in leaf
    order, each built only when the iterator reaches it, so a caller that
    stops at an atom builds none after it."""
    tree = clique_cutset_tree(g)
    return tree, (Atom(g, atom, budget) for _, atom in tree.pieces)


def clique_cutset_tree(g: Graph) -> DecompositionTree:
    """Decompose g into the pieces of _tarjan_pieces, so a connected graph
    has at most n-1 leaves.  Components come by least vertex; the last
    atom lies in the last one."""
    return DecompositionTree(g, tuple(_tarjan_pieces(g)))


def _tarjan_pieces(g: Graph) -> Iterator[tuple[tuple[int, ...],
                                             tuple[int, ...]]]:
    """(cutset, atom) for every split, then ((), last atom): each block's
    pieces in scan order, the last of them split off along the block's
    parent cut vertex, or along () for a component's last block."""
    if not g.n:
        yield (), ()
    for blocks in component_blocks(g):
        # i is 0 for the component's last block.
        for i, (top, block) in enumerate(blocks, 1 - len(blocks)):
            for cutset, atom in _block_pieces(g, top, block):
                yield cutset or ((top,) if i else ()), atom


def component_blocks(g: Graph) -> Iterator[list[tuple[int, list[int]]]]:
    """Per component, by least vertex: its blocks as (top, vertices),
    leaf-first along the block-cut tree, by one depth-first search.  top is
    the block's parent cut vertex, or the component's least vertex for the
    blocks holding it; an isolated vertex is a block of its own."""
    disc, low, count = [0] * g.n, [0] * g.n, 0
    for root in g.vertices():
        if disc[root]:
            continue
        disc[root] = count = count + 1
        blocks, stack, work = [], [root], [(root, iter(g.adj[root]))]
        while work:
            v, nbrs = work[-1]
            least = low[v]
            for u in nbrs:
                if not disc[u]:
                    disc[u] = low[u] = count = count + 1
                    stack.append(u)
                    work.append((u, iter(g.adj[u])))
                    break
                if disc[u] < least:
                    least = low[v] = disc[u]
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], least)
                    if least >= disc[p]:
                        block = [p]
                        while block[-1] != v:
                            block.append(stack.pop())
                        blocks.append((p, block))
        yield blocks or [(root, [root])]


def _block_pieces(g: Graph, top: int, block: list[int]
                  ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pieces of one block, ending with ((), the piece holding top).

    The Atoms scan runs on the block's quotient h: each thread shrunk to
    one vertex, each class of true twins of the block merged into one, and
    top's group as vertex 0, which MCS-M eliminates last.  A group's row
    of h comes from one walk over the block mask of each thread vertex,
    or of one twin standing for its class.  A generator x
    whose madj(x), a minimal separator of the minimal triangulation, is a
    clique splits off x's component of the rest: that component lies below
    x in elimination order, every later generator above it.

    The quotient is exact.  A vertex u of a minimal separator S sees both
    full sides of S, and so does every true twin of u, so no separator
    splits a twin class; twin classes are clique modules, so the block's
    clique minimal separators and their components are the lifts of h's.
    A thread vertex (degree 2, in a block of four or more vertices) has no
    twin, so each vertex is grouped by its thread or by its closed mask in
    the block.  h need not be 2-connected (twins may merge into a cut
    vertex of h), so h is one atom when it is a clique or when every
    degree is 2, a cycle; a block of thread vertices alone is a cycle and
    is not grouped at all."""
    if len(block) <= 2:
        yield (), vertex_set(block)
        return
    thread = {v for v in block if len(g.adj[v]) == 2}
    if len(thread) == len(block):
        yield (), vertex_set(block)
        return
    inside = mask_of(block)
    group: dict[int, int] = {}
    members: list[list[int]] = []
    twins: dict[int, int] = {}
    for v in [top, *sorted(block)]:
        if v in group:
            continue
        if v in thread:
            group[v] = len(members)
            members.append([v])
            for x in members[-1]:
                for u in g.adj[x]:
                    if u in thread and u not in group:
                        group[u] = group[v]
                        members[-1].append(u)
        else:
            i = group[v] = twins.setdefault((g.mask(v) | 1 << v) & inside,
                                            len(members))
            if i == len(members):
                members.append([])
            members[i].append(v)
    # Twins share their neighbours, so one of them stands for its class.
    adj = []
    for i, vs in enumerate(members):
        row = 0
        for x in vs if vs[0] in thread else vs[:1]:
            nbrs = g.mask(x) & inside
            while nbrs:
                low = nbrs & -nbrs
                row |= 1 << group[low.bit_length() - 1]
                nbrs ^= low
        adj.append(row & ~(1 << i))
    degrees = [mask.bit_count() for mask in adj]
    if (sum(degrees) == len(adj) * (len(adj) - 1)
            or all(d == 2 for d in degrees)):
        yield (), vertex_set(block)
        return

    def lift(mask: int) -> tuple[int, ...]:
        return vertex_set(u for i in mask_members(mask) for u in members[i])

    _, madj, generators = mcs_m(adj)
    alive = (1 << len(adj)) - 1
    for x in generators:
        cut = madj[x]
        if all((adj[u] | 1 << u) & cut == cut for u in mask_members(cut)):
            side = reach(adj, 1 << x, alive & ~cut)
            alive ^= side
            yield lift(cut), lift(side | cut)
    yield (), lift(alive)


def tree_to_dot(tree: DecompositionTree) -> str:
    """DOT rendering: internal nodes show the cutset, leaves the atom size.

    Nodes are numbered in preorder: spine node i is n(2i), its atom
    n(2i+1), and the last atom n(2s) for a spine of s nodes.  Each tree
    edge is written after the child's whole subtree, so the spine edges
    come last, from the bottom up."""
    def atom_line(i: int, atom: tuple[int, ...]) -> str:
        return f'  n{i} [label="atom |{len(atom)}|", shape=box];'

    lines = ["graph decomposition {"]
    *spine, (_, last) = tree.pieces
    for i, (cutset, atom) in enumerate(spine):
        cut = ",".join(str(v + 1) for v in cutset) or "empty"
        lines += [f'  n{2 * i} [label="cutset {{{cut}}}"];',
                  atom_line(2 * i + 1, atom),
                  f"  n{2 * i} -- n{2 * i + 1};"]
    lines.append(atom_line(2 * len(spine), last))
    lines += [f"  n{2 * i} -- n{2 * i + 2};"
              for i in reversed(range(len(spine)))]
    lines.append("}")
    return "\n".join(lines) + "\n"
