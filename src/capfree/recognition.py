"""Recognition of (cap, 4-hole)-free odd-signable and (cap, even-hole)-free
graphs with machine-checkable certificates.

Pipeline: 4-hole test, clique-cutset decomposition, one Atom record per
leaf (the induced atom and its skeleton extraction), a cap test read off
those atoms, then a budgeted oracle on each skeleton (odd-signability
when there is no universal clique, even-hole-freeness otherwise).

The cap test needs the atoms because of where a cap can sit.  Its hole
has no clique separator, so it lies inside one atom (Leimer, "Optimal
decomposition by clique separators", Discrete Math. 113, 1993).  An atom
with a skeleton holds no whole cap, and an apex outside the atom sees it
through the neighbourhood of its component, a clique minimal separator
(Berry, Pogorelcnik & Simonet, "An introduction to clique minimal
separator decomposition", Algorithms 3, 2010).  So a cap shows as an
outside vertex that sees two classes of an atom's boundary; an atom
without a skeleton falls back to detect_cap_fast on the whole graph, whose
searches each stay inside one block.

Rejections carry a forbidden-structure witness that re-checks against the
input; an oracle or witness search that runs out of its budget of nodes
yields "undecided" rather than a wrong or uncertified answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .decomposition import (Atom, DecompositionTree, component_blocks,
                            decompose)
from .graphs import Graph, mask_members, mask_of, reach
from .oracles import (DEFAULT_BUDGET, ForbiddenWitness, SearchBudgetExceeded,
                      canonical_cycle, certify, find_any_forbidden,
                      find_forbidden_induced, odd_signable_signing,
                      verify_witness)
from .twins import SkeletonDecomposition, SkeletonReject

ACCEPTED = "accepted"
REJECTED = "rejected"
UNDECIDED = "undecided"


def detect_4hole(g: Graph) -> Optional[ForbiddenWitness]:
    """An induced 4-cycle, or None.

    For each u, only the vertices v > u with two common neighbours can
    close a 4-hole with u: those that two of its neighbours' masks hold,
    minus N[u] and the ids up to u.  Counting to two rather than taking
    every vertex at distance two keeps a hub cheap: its neighbours see
    each other only through it.  The common neighbors of u and v hold a
    nonadjacent pair x < y exactly when some x misses a later common
    neighbor, so walking x upward and taking the lowest such y returns the
    same first (u, v, x, y) in lexicographic order as a scan over all
    nonadjacent pairs would.
    """
    masks = [g.mask(v) for v in g.vertices()]
    for u in g.vertices():
        once = twice = 0
        for x in g.adj[u]:
            twice |= once & masks[x]
            once |= masks[x]
        candidates = twice & ~masks[u] & ~((2 << u) - 1)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            common = masks[u] & masks[v]
            while common:
                bit = common & -common
                common ^= bit
                x = bit.bit_length() - 1
                miss = common & ~masks[x]
                if miss:
                    y = (miss & -miss).bit_length() - 1
                    cyc = canonical_cycle((u, x, v, y))
                    w = ForbiddenWitness("4-hole", cyc, (cyc,))
                    certify(verify_witness(g, w), "4-hole re-check")
                    return w
    return None


def detect_cap_fast(g: Graph) -> Optional[ForbiddenWitness]:
    """A cap, or None, in polynomial time.

    For every edge uv and every common neighbor w, search for a u-v path
    after deleting w's other neighbors, all common neighbors of u and v,
    and the edge uv itself.  A shortest such path is induced and closes
    with uv into a hole in which w has exactly the two adjacent neighbors
    u and v.  Each search first decides reachability alone, with one
    reach over neighbour masks: some path exists when a vertex that u's
    other neighbours reach through the rest sees v.  On cap-free graphs
    every search ends there.  Only the first search that reaches v builds
    its path, by breadth-first search over the whole graph with
    ascending-id tie-breaking, which makes the witness deterministic.

    The reach stays inside the block that holds uv (component_blocks):
    such a path closes a cycle with uv, and a cycle lies in one block, so
    every search answers as it would on the whole graph, the same search
    finds the first cap, and its witness is the same.  A search then
    costs the block, not the graph, which keeps graphs of many blocks,
    such as glued instances, near-linear.
    """
    masks = [g.mask(v) for v in g.vertices()]
    block_of: dict[tuple[int, int], int] = {}
    for blocks in component_blocks(g):
        for _, block in blocks:
            inside = mask_of(block)
            for x in block:
                for y in mask_members(masks[x] & inside & ~((2 << x) - 1)):
                    block_of[x, y] = inside
    for u, v in g.edges():
        common = masks[u] & masks[v]
        if not common:
            continue
        ends = 1 << u | 1 << v
        inside = block_of[u, v]
        candidates = common
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            w = low.bit_length() - 1
            removed = (masks[w] | common) & ~ends
            rest = inside & ~(removed | ends)
            if not reach(masks, masks[u] & rest, rest) & masks[v]:
                continue
            path = _bfs_path_avoiding(g, u, v, removed)
            cyc = canonical_cycle(tuple(path))
            witness = ForbiddenWitness("cap", cyc + (w,), (cyc, (w,)))
            certify(verify_witness(g, witness), "cap witness failed re-check")
            return witness
    return None


def detect_cap_in_atoms(g: Graph, atoms: Sequence[Atom]
                        ) -> Optional[ForbiddenWitness]:
    """A cap, or None, for a 4-hole-free g given the Atom records of the
    leaves of its clique-cutset tree.

    A cap is a hole H, here of length at least 5, plus an apex x that sees
    exactly two vertices u, v of H, and they are adjacent.  H lies inside
    one atom A.  If A has a skeleton, x is not in A: H avoids A's universal
    clique, whose vertices would see all of H, and meets each twin class at
    most once; an apex in a class either has a twin on H, and sees three
    vertices of H, or closes a triangle of the skeleton with the classes of
    u and v.  So x lies outside A, and N(x) inside A lies in the clique
    minimal separator between A and x's component: u and v come from two
    non-universal classes.  Conversely such an x is the apex of a cap.  No
    skeleton edge of a non-complete atom is a bridge, which would give A a
    clique cutset, and the shortest cycle through an edge of a
    triangle-free graph is a hole.

    u and v have a neighbour outside A, so only the boundary of A counts:
    an atom is scanned only when its boundary spans two non-universal
    classes, which keeps the test linear when many atoms share a vertex.
    Then the outside neighbours x of the boundary come by ascending id, u is
    x's least neighbour in the boundary and v the least one in another
    class.  The hole is the shortest cycle through the skeleton edge of
    their classes (breadth-first, ascending-id ties), lifted through u, v
    and the representatives of the other classes.  If some atom has no
    skeleton, the answer is detect_cap_fast(g).
    """
    if any(isinstance(atom.extracted, SkeletonReject) for atom in atoms):
        return detect_cap_fast(g)
    for atom in atoms:
        if atom.complete:
            continue
        sd, back = atom.extracted, atom.vertices
        boundary = {back[v]: i for i, members in enumerate(sd.classes)
                    for v in members
                    if atom.graph.degree(v) < g.degree(back[v])}
        if len(set(boundary.values())) < 2:
            continue
        inside = set(atom.vertices)
        outside = {x for r in boundary for x in g.adj[r] if x not in inside}
        for x in sorted(outside):
            seen: dict[int, int] = {}
            for r in g.adj[x]:
                if r in boundary:
                    seen.setdefault(boundary[r], r)
            if len(seen) < 2:
                continue
            (cu, u), (cv, v) = list(seen.items())[:2]
            path = _bfs_path_avoiding(sd.skeleton, cu, cv, 0)
            certify(path is not None, "skeleton edge lies on no cycle")
            ends = {cu: u, cv: v}
            cyc = canonical_cycle(tuple(
                ends[s] if s in ends else back[sd.classes[s][0]]
                for s in path))
            witness = ForbiddenWitness("cap", cyc + (x,), (cyc, (x,)))
            certify(verify_witness(g, witness), "cap witness failed re-check")
            return witness
    return None


def _bfs_path_avoiding(g: Graph, u: int, v: int, removed: int
                       ) -> Optional[list[int]]:
    """Shortest u..v path avoiding `removed` vertices and the edge uv."""
    parent = {u: -1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            path = [v]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return path[::-1]
        options = g.mask(x) & ~removed
        while options:
            low = options & -options
            options ^= low
            y = low.bit_length() - 1
            if x == u and y == v:
                continue
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


@dataclass(frozen=True)
class AtomReport:
    """Per-atom certificate piece: the atom's vertices in the input graph,
    and either "complete" or its skeleton decomposition with the oracle
    outcome on the skeleton."""
    vertices: tuple[int, ...]
    complete: bool
    skeleton: Optional[SkeletonDecomposition] = None
    oracle: Optional[str] = None   # "odd-signable" / "even-hole-free"


@dataclass(frozen=True)
class RecognitionVerdict:
    status: str
    target_class: str
    witness: Optional[ForbiddenWitness] = None
    tree: Optional[DecompositionTree] = None
    atoms: tuple[AtomReport, ...] = field(default=())
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


def recognize(g: Graph, target_class: str, *,
              budget: int = DEFAULT_BUDGET) -> RecognitionVerdict:
    """Decide class membership with a certificate.

    Stages: the 4-hole test; decompose, the cutset tree and one Atom per
    leaf; the cap test detect_cap_in_atoms, over every atom before any
    oracle, so a graph with a cap is rejected with a cap; then, atom by
    atom in leaf order, the skeleton oracle.  The cap test reads the atoms
    because a cap's hole lies in one atom (Leimer, Discrete Math. 113,
    1993) and its apex sees that atom through a clique minimal separator
    (Berry, Pogorelcnik & Simonet, Algorithms 3, 2010), so an atom with a
    skeleton holds no whole cap.

    Rejection witnesses re-check against g; 4-hole and cap rejections
    carry no tree.  Acceptance certificates carry the decomposition tree
    and each atom's skeleton decomposition, from which the input
    reconstructs.  An oracle search that runs out of budget nodes makes
    the outcome "undecided" (reported, never wrong).
    """
    if target_class not in ("cap-even-hole-free", "cap-4hole-odd-signable"):
        raise ValueError(f"unknown class {target_class!r}")
    witness = detect_4hole(g)
    if witness is not None:
        return RecognitionVerdict(REJECTED, target_class, witness)
    tree, lazy = decompose(g)
    atoms = list(lazy)
    witness = detect_cap_in_atoms(g, atoms)
    if witness is not None:
        return RecognitionVerdict(REJECTED, target_class, witness)
    reports: list[AtomReport] = []
    for i, atom in enumerate(atoms, 1):
        if atom.complete:
            reports.append(AtomReport(atom.vertices, True))
            continue
        if isinstance(atom.extracted, SkeletonReject):
            raise RuntimeError(
                "skeleton shape violation on a cap- and 4-hole-free atom "
                "without clique cutsets; this cannot happen: "
                f"{atom.extracted}")
        sd = atom.extracted
        oracle = ("even-hole-free" if target_class == "cap-even-hole-free"
                  or sd.universal else "odd-signable")
        try:
            witness = _skeleton_witness(g, atom, oracle, target_class,
                                        budget)
        except SearchBudgetExceeded as exc:
            return RecognitionVerdict(
                UNDECIDED, target_class, tree=tree,
                detail=(f"the {oracle} oracle on atom {i} of {len(atoms)} "
                        f"({len(atom.vertices)} vertices): {exc}"))
        if witness is not None:
            return RecognitionVerdict(REJECTED, target_class, witness, tree)
        reports.append(AtomReport(atom.vertices, False, sd, oracle))
    return RecognitionVerdict(ACCEPTED, target_class, tree=tree,
                              atoms=tuple(reports))


def _skeleton_witness(g: Graph, atom: Atom, oracle: str, target_class: str,
                      budget: int) -> Optional[ForbiddenWitness]:
    """A witness in g that the atom's skeleton fails oracle, or None.  An
    even hole of the skeleton plus a universal vertex, numbered after the
    skeleton, forms an even wheel; a skeleton that is not odd-signable
    holds an even wheel or a theta (a prism has triangles)."""
    sd, back = atom.extracted, atom.vertices
    to_root = tuple(back[r] for r in sd.representatives)
    if oracle == "odd-signable":
        if odd_signable_signing(sd.skeleton, budget=budget) is not None:
            return None
        found = find_any_forbidden(sd.skeleton, ("even-wheel", "theta"),
                                   budget=budget)
        certify(found is not None,
                "non-odd-signable skeleton must contain a witness")
        witness = found.relabel(to_root)
    else:
        eh = find_forbidden_induced(sd.skeleton, "even-hole", budget=budget)
        if eh is None:
            return None
        if target_class == "cap-even-hole-free":
            witness = eh.relabel(to_root)
        else:
            cyc, hub = eh.parts[0], len(to_root)
            wheel = ForbiddenWitness("even-wheel", cyc + (hub,),
                                     (cyc, (hub,)))
            witness = wheel.relabel(to_root + (back[sd.universal[0]],))
    certify(verify_witness(g, witness), "skeleton witness re-check")
    return witness
