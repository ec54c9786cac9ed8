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
scan.  A quotient that is a clique or a cycle is one atom.  One group-id
list per scan gives each vertex of the block at hand its quotient vertex.
The quotient's rows are built by symmetry from adjacency lists, each edge
read setting both rows, and no block walks its top vertex, so the
depth-first search and the rows each read every adjacency list at most
once per scan.  The blocks come leaf-first along the block-cut tree, each
split off along its parent cut vertex.  The tree is the scan's (cutset,
atom) pieces in leaf order, and its node view reads them.

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
from .treewidth import NiceDecomposition, mcs_m, min_fill_nice
from .twins import COMPLETE_ATOM, ExtractResult, extract_skeleton

Piece = tuple[tuple[int, ...], tuple[int, ...]]  # (cutset, atom)


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


class DecompositionNode:
    """Node i of a DecompositionTree, viewed on its pieces: leaf i holds
    atom i, spine node i cutset i, leaf i on its left and spine node i + 1
    on its right, built when read; the last piece is a leaf.  Immutable and
    flat, so its equality, hash, repr, pickles and copies never recurse."""

    def __init__(self, pieces: tuple[Piece, ...], i: int, leaf: bool = False):
        leaf = leaf or i == len(pieces) - 1
        cutset, atom = pieces[i]
        self.__dict__.update(_pieces=pieces, _i=i, is_leaf=leaf,
                             atom=atom if leaf else None,
                             cutset=None if leaf else cutset)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{name!r} is read-only: views are immutable")

    __delattr__ = __setattr__

    @property
    def left(self) -> Optional[DecompositionNode]:
        return None if self.is_leaf else DecompositionNode(
            self._pieces, self._i, True)

    @property
    def right(self) -> Optional[DecompositionNode]:
        return None if self.is_leaf else DecompositionNode(
            self._pieces, self._i + 1)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        below = self._pieces[self._i:self._i + 1 if self.is_leaf else None]
        return vertex_set(set().union(*(atom for _, atom in below)))

    def _key(self) -> tuple:
        return self.atom if self.is_leaf else self._pieces[self._i:]

    def __eq__(self, other) -> bool:
        return (self._key() == other._key()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        name = type(self).__qualname__
        leaf = f"{name}(atom={{!r}}, cutset=None, left=None, right=None)"
        if self.is_leaf:
            return leaf.format(self.atom)
        spine = self._pieces[self._i:-1]
        return "".join(f"{name}(atom=None, cutset={cutset!r}, left="
                       f"{leaf.format(atom)}, right=" for cutset, atom in spine
                       ) + leaf.format(self._pieces[-1][1]) + ")" * len(spine)


@dataclass(frozen=True)
class DecompositionTree:
    """A caterpillar, held as its (cutset, atom) pieces in leaf order: spine
    node i splits off atom i along cutset i, and the last, along (), ends
    the spine.  root, leaves() and internal_nodes() view the pieces."""
    graph: Graph
    pieces: tuple[Piece, ...]

    @cached_property
    def root(self) -> DecompositionNode:
        return DecompositionNode(self.pieces, 0)

    def leaves(self) -> list[DecompositionNode]:
        """Leaves in left-to-right order, one per piece."""
        return [DecompositionNode(self.pieces, i, True)
                for i in range(len(self.pieces))]

    def atoms(self) -> list[tuple[int, ...]]:
        return [atom for _, atom in self.pieces]

    def internal_nodes(self) -> list[DecompositionNode]:
        """The spine from the root down."""
        return [DecompositionNode(self.pieces, i)
                for i in range(len(self.pieces) - 1)]


class UnsupportedInstanceError(SearchBudgetExceeded):
    """A solver's work on an atom ran out of its budget: the DP over the
    atom's decomposition, or a brute-force search where one serves.  The
    message names each search that ran out and its budget."""


class Atom:
    """One leaf of clique_cutset_tree, as decompose builds it: the root
    vertices of the atom, whether the atom is complete, and what
    extract_skeleton returns for it.

    Completeness is read off the root's masks: every vertex's closed
    neighbourhood holds the atom's mask.  A complete atom needs nothing
    more, so it builds no graph and runs no extraction; extracted is
    COMPLETE_ATOM.  graph is induced_subgraph's atom root[vertices],
    relabelled so that local vertex v is vertices[v] (root itself when
    the atom spans it, as induced_subgraph returns it), built on first
    read: at once for a non-complete atom, which extract_skeleton reads.

    For any other atom, extracted, a SkeletonDecomposition or a
    SkeletonReject, gives the twin quotient, its classes and universal
    clique; nice, built on first use by min_fill_nice, is the nice form
    of the quotient's min-fill tree decomposition at any width, which both
    DPs read.  The DPs and brute count their work against budget.
    """

    def __init__(self, root: Graph, vertices: tuple[int, ...], budget: int):
        self.root = root
        self.vertices = vertices
        mask = mask_of(vertices)
        self.complete = all((root.mask(v) | 1 << v) & mask == mask
                            for v in vertices)
        self.extracted: ExtractResult = (
            COMPLETE_ATOM if self.complete else extract_skeleton(self.graph))
        self.budget = budget

    @cached_property
    def graph(self) -> Graph:
        return induced_subgraph(self.root, self.vertices)[0]

    @cached_property
    def nice(self) -> Optional[NiceDecomposition]:
        return None if self.complete else min_fill_nice(
            self.extracted.quotient)

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


def _tarjan_pieces(g: Graph) -> Iterator[Piece]:
    """(cutset, atom) for every split, then ((), last atom): each block's
    pieces in scan order, the last of them split off along the block's
    parent cut vertex, or along () for a component's last block.  The scan
    owns one group-id list, -1 outside the block being grouped."""
    if not g.n:
        yield (), ()
    group = [-1] * g.n
    for blocks in component_blocks(g):
        # i is 0 for the component's last block.
        for i, (top, block) in enumerate(blocks, 1 - len(blocks)):
            for cutset, atom in _block_pieces(g, top, block, group):
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


def _block_pieces(g: Graph, top: int, block: list[int], group: list[int]
                  ) -> Iterator[Piece]:
    """The pieces of one block, ending with ((), the piece holding top).

    The Atoms scan runs on the block's quotient h: each thread shrunk to
    one vertex, each class of true twins of the block merged into one, and
    top's group as vertex 0, which MCS-M eliminates last.  group, the
    scan's group-id list, holds each block vertex's vertex of h while the
    rows are built, and is reset to -1 before the block yields.  The rows
    are built by symmetry: each edge of h is set in both rows from the
    adjacency list of a thread vertex, or of one twin standing for its
    class.  Every edge of h has an end other than top's group, whose walk
    finds it, so top's group is never walked, and a cut vertex's list is
    read only in the one block where it is not top, once per scan.  A
    generator x whose madj(x), a minimal separator of the minimal
    triangulation, is a clique splits off x's component of the rest: that
    component lies below x in elimination order, every later generator
    above it.

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
    adj = g.adj
    if len(block) <= 2 or all(len(adj[v]) == 2 for v in block):
        yield (), vertex_set(block)
        return
    inside = mask_of(block)
    members: list[list[int]] = []
    twins: dict[int, int] = {}
    for v in [top, *sorted(block)]:
        if group[v] >= 0:
            continue
        if len(adj[v]) == 2:
            # Both neighbours of a thread vertex lie in the block.
            group[v] = len(members)
            members.append([v])
            for x in members[-1]:
                for u in adj[x]:
                    if len(adj[u]) == 2 and group[u] < 0:
                        group[u] = group[v]
                        members[-1].append(u)
        else:
            i = group[v] = twins.setdefault((g.mask(v) | 1 << v) & inside,
                                            len(members))
            if i == len(members):
                members.append([])
            members[i].append(v)
    # Twins share their neighbours, so one of them stands for its class.
    rows = [0] * len(members)
    for i in range(1, len(members)):
        vs, row, bit = members[i], 0, 1 << i
        for x in vs if len(adj[vs[0]]) == 2 else vs[:1]:
            for u in adj[x]:
                j = group[u]
                if j >= 0:
                    row |= 1 << j
                    rows[j] |= bit
        # Only group i's own walk sets bit i in its row.
        rows[i] = (rows[i] | row) & ~bit
    for v in block:
        group[v] = -1
    degrees = [row.bit_count() for row in rows]
    if (sum(degrees) == len(rows) * (len(rows) - 1)
            or all(d == 2 for d in degrees)):
        yield (), vertex_set(block)
        return

    def lift(mask: int) -> tuple[int, ...]:
        return vertex_set(u for i in mask_members(mask) for u in members[i])

    _, madj, generators = mcs_m(rows)
    alive = everything = (1 << len(rows)) - 1
    for x in generators:
        cut = rest = madj[x]
        while rest:
            low = rest & -rest
            if (rows[low.bit_length() - 1] | low) & cut != cut:
                break
            rest ^= low
        else:
            side = reach(rows, 1 << x, alive & ~cut)
            alive ^= side
            yield lift(cut), lift(side | cut)
    yield (), vertex_set(block) if alive == everything else lift(alive)


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
