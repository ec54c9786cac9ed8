"""True-twin classes, skeleton extraction for atoms, and lifting skeleton
decompositions back to atoms.

An atom (no clique cutset) of a (cap, 4-hole)-free graph is a blow-up of a
triangle-free, cutset-free skeleton plus a universal clique.  The skeleton
is recovered from the twin classes of the atom minus its universal
vertices; extraction validates the shape and rejects with a triangle of
the would-be skeleton otherwise, keeping that twin quotient for the
solvers.  One grouping by closed neighbour mask
gives the twin classes of a graph (twin_classes) and of an atom minus its
universal vertices (extract_skeleton); twin_classes_quadratic is the
pairwise reference, on neighbour sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import (Graph, add_universal_clique, blow_up, induced_subgraph,
                     mask_members, vertex_set)
from .oracles import find_forbidden_induced
from .treewidth import TreeDecomposition


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Equivalence classes of true twins (equal closed neighborhoods),
    each in increasing order, the classes by their minimum vertex."""
    return _twin_classes_within(g, (1 << g.n) - 1)


def _twin_classes_within(g: Graph, within: int) -> list[tuple[int, ...]]:
    """The true-twin classes of g restricted to the vertex mask within:
    its vertices grouped by closed neighbour mask cut down to within, in
    one pass in increasing order, so each class is sorted and the classes
    come by their minimum vertex."""
    seen: dict[int, list[int]] = {}
    for v in mask_members(within):
        seen.setdefault((g.mask(v) | 1 << v) & within, []).append(v)
    return [tuple(vs) for vs in seen.values()]


def twin_classes_quadratic(g: Graph) -> list[tuple[int, ...]]:
    """Reference partition by direct pairwise N[u] = N[v] comparison, on
    neighbour sets rather than masks."""
    closed = [set(g.adj[v]) | {v} for v in g.vertices()]
    return sorted({tuple(u for u in g.vertices() if closed[u] == closed[v])
                   for v in g.vertices()})


@dataclass(frozen=True)
class SkeletonDecomposition:
    """An atom expressed as (skeleton, per-vertex clique, universal clique).

    skeleton vertex i corresponds to the atom clique classes[i]; universal
    lists the atom's universal vertices.  Representatives are the minimum
    vertex of each class.
    """
    atom: Graph
    skeleton: Graph
    classes: tuple[tuple[int, ...], ...]
    universal: tuple[int, ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.classes)

    @property
    def quotient(self) -> Graph:
        return self.skeleton


@dataclass(frozen=True)
class SkeletonReject:
    """Certificate that an atom is not a blow-up of a triangle-free
    skeleton: a triangle among class representatives (atom vertex ids),
    with the twin quotient that has it (the atom induced on them), its
    classes and universal clique, which the solvers read."""
    kind: str       # always "triangle"
    vertices: tuple[int, ...]
    quotient: Graph
    classes: tuple[tuple[int, ...], ...]
    universal: tuple[int, ...]


COMPLETE_ATOM = "complete-atom"

ExtractResult = Union[SkeletonDecomposition, SkeletonReject, str]


def extract_skeleton(atom: Graph) -> ExtractResult:
    """Skeleton decomposition of an atom, COMPLETE_ATOM for complete
    graphs, or a SkeletonReject when the shape does not hold.

    Precondition: the atom has no clique cutset (it is a leaf of
    clique_cutset_tree, or was checked with find_clique_cutset).  The
    skeleton of such an atom has none either, since a skeleton clique
    cutset K would lift to the atom clique cutset classes(K) plus the
    universal clique; rejection then certifies the atom is outside the
    (cap, 4-hole)-free class.

    The classes are the true-twin classes of the atom minus its universal
    vertices, by the grouping twin_classes runs: the rest grouped by
    closed neighbour mask cut down to the rest.
    """
    n = atom.n
    if atom.m == n * (n - 1) // 2:
        return COMPLETE_ATOM
    universal = tuple(v for v in atom.vertices() if atom.degree(v) == n - 1)
    rest = (1 << n) - 1
    for v in universal:
        rest ^= 1 << v
    classes = tuple(_twin_classes_within(atom, rest))
    reps = [cls[0] for cls in classes]
    skeleton, _ = induced_subgraph(atom, reps)
    tri = find_forbidden_induced(skeleton, "triangle")
    if tri is not None:
        return SkeletonReject("triangle",
                              tuple(reps[i] for i in tri.vertices),
                              skeleton, classes, universal)
    return SkeletonDecomposition(atom, skeleton, classes, universal)


def max_clique_via_skeleton(sd: SkeletonDecomposition) -> tuple[int, ...]:
    """A maximum clique of the atom: U plus the heaviest class or adjacent
    class pair (the first met).  Valid because the skeleton is
    triangle-free, so maximal cliques are U with one or two (adjacent)
    blown-up classes."""
    top: tuple[int, ...] = max(sd.classes, key=len)
    for u, v in sd.skeleton.edges():
        pair = sd.classes[u] + sd.classes[v]
        if len(pair) > len(top):
            top = pair
    return vertex_set(sd.universal + top)


def clique_number_via_skeleton(sd: SkeletonDecomposition) -> int:
    """omega of the atom, the size of max_clique_via_skeleton."""
    return len(max_clique_via_skeleton(sd))


def reconstruct_atom(sd: SkeletonDecomposition) -> Graph:
    """Rebuild the atom from its skeleton decomposition.

    Blows the skeleton up by the class sizes, appends the universal clique,
    then relabels blocks back to atom ids; equality with the original atom
    is the round-trip check.
    """
    sizes = [len(cls) for cls in sd.classes]
    rebuilt = add_universal_clique(blow_up(sd.skeleton, sizes),
                                   len(sd.universal))
    mapping: list[int] = []
    for cls in sd.classes:
        mapping.extend(cls)
    mapping.extend(sd.universal)
    edges = [(mapping[u], mapping[v]) for u, v in rebuilt.edges()]
    weights = sd.atom.weights if sd.atom.has_weights() else None
    return Graph(sd.atom.n, edges, weights)


def lift_tree_decomposition(td: TreeDecomposition,
                            sd: SkeletonDecomposition) -> TreeDecomposition:
    """Substitute each skeleton vertex's clique into its bags and append
    the universal clique to every bag; valid for the atom with width at
    most 6*omega(atom) - 1."""
    if td.bags and max(max(b) for b in td.bags if b) >= sd.skeleton.n:
        raise ValueError("decomposition does not match the skeleton")
    bags = []
    for bag in td.bags:
        lifted: list[int] = list(sd.universal)
        for v in bag:
            lifted.extend(sd.classes[v])
        bags.append(vertex_set(lifted))
    return TreeDecomposition(tuple(bags), td.edges)
