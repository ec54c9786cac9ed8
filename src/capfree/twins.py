"""True-twin partition refinement and skeleton extraction for atoms.

An atom (no clique cutset) of a (cap, 4-hole)-free graph is a blow-up of a
triangle-free, cutset-free skeleton plus a universal clique.  The skeleton
is recovered from the twin classes of the atom minus its universal
vertices; extraction validates the shape and rejects with a triangle of
the would-be skeleton otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .graphs import (Graph, add_universal_clique, blow_up, induced_subgraph,
                     mask_members, vertex_set)
from .oracles import find_forbidden_induced


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Equivalence classes of true twins (equal closed neighborhoods).

    Ordered class-splitting: every class is split against N[v] for each
    vertex v in turn, using per-class buckets, which runs in O(n + m) and
    computes the same partition as the pairwise check.  Classes come out
    sorted by their minimum vertex.
    """
    if g.n == 0:
        return []
    class_of = [0] * g.n
    members = [set(g.vertices())]
    for v in g.vertices():
        touched: dict[int, list[int]] = {}
        for u in list(g.adj[v]) + [v]:
            touched.setdefault(class_of[u], []).append(u)
        for cid, inside in touched.items():
            if len(inside) == len(members[cid]):
                continue
            # A split costs the vertices that move, not the class size.
            members[cid].difference_update(inside)
            for u in inside:
                class_of[u] = len(members)
            members.append(set(inside))
    return sorted(vertex_set(vs) for vs in members)


def twin_classes_quadratic(g: Graph) -> list[tuple[int, ...]]:
    """Reference partition by direct pairwise N[u] = N[v] comparison."""
    closed = [g.mask(v) | (1 << v) for v in g.vertices()]
    seen: dict[int, list[int]] = {}
    for v in g.vertices():
        seen.setdefault(closed[v], []).append(v)
    return sorted(vertex_set(vs) for vs in seen.values())


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


@dataclass(frozen=True)
class SkeletonReject:
    """Certificate that an atom is not a blow-up of a triangle-free
    skeleton: a triangle among class representatives (atom vertex ids)."""
    kind: str       # always "triangle"
    vertices: tuple[int, ...]


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
    vertices, found as in twin_classes_quadratic: the rest grouped by
    closed neighbour mask cut down to the rest.
    """
    n = atom.n
    if atom.m == n * (n - 1) // 2:
        return COMPLETE_ATOM
    universal = tuple(v for v in atom.vertices() if atom.degree(v) == n - 1)
    rest = (1 << n) - 1
    for v in universal:
        rest ^= 1 << v
    seen: dict[int, list[int]] = {}
    for v in mask_members(rest):
        seen.setdefault((atom.mask(v) | 1 << v) & rest, []).append(v)
    classes = tuple(map(tuple, seen.values()))
    reps = [cls[0] for cls in classes]
    skeleton, _ = induced_subgraph(atom, reps)
    tri = find_forbidden_induced(skeleton, "triangle")
    if tri is not None:
        return SkeletonReject("triangle",
                              tuple(reps[i] for i in tri.vertices))
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
