"""Good ears and certified instance generation: ear sequences, the
good-ear check, the skeleton an ear sequence builds and its chordal
triangulation (clique number at most 6, so the skeleton has treewidth at
most 5), good-ear skeletons, blow-ups with universal cliques, and
clique-cutset gluing.

Every emitted instance carries a provenance record (skeletons, ear data,
blow-up sizes, expected clique number) so tests know the right answers
without re-deriving them.

The ear loops keep one list of the current graph's holes, in
enumerate_chordless_cycles' order, for the good-ear checks, the hosts
(drawn by position in the list) and the final odd-signing.  The list stays
valid across ears: an ear's edges all meet its fresh interior, so every
hole of the graph before it is still a hole, and every new hole passes
through the interior.  Only those are enumerated: chordless_cycles_through
closes each at its least interior vertex by induced paths that avoid the
smaller interior vertices.  They are merged in by cycle_order, so the list
is the one a full enumeration would give, and for the even-hole-free
target only they need checking.
The instance's closing self-check runs detect_cap_fast, whose searches
each stay inside one block, so gluing many atoms stays near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import merge
from typing import Optional

from .graphs import (Graph, add_universal_clique, blow_up, hole,
                     serialize_graph)
from .oracles import (certify, chordless_cycles_through, cycle_order,
                      holes_of, odd_signing)
from .recognition import detect_4hole, detect_cap_fast
from .rng import Xoshiro256StarStar
from .treewidth import is_chordal

TARGET_CLASSES = ("cap-even-hole-free", "cap-4hole-odd-signable")


@dataclass(frozen=True)
class GeneratorParams:
    seed: int
    ear_count: int = 0
    max_ear_length: int = 6
    max_blowup: int = 1
    max_universal: int = 0
    glue_count: int = 0
    target_class: str = "cap-even-hole-free"
    base_length: Optional[int] = None

    def __post_init__(self):
        if min(self.ear_count, self.max_blowup - 1, self.max_universal,
               self.glue_count) < 0:
            raise ValueError("bounds must be nonnegative and max_blowup >= 1")
        if self.max_ear_length < 2:
            raise ValueError("max_ear_length must be at least 2")
        if self.target_class not in TARGET_CLASSES:
            raise ValueError(f"unknown target class {self.target_class!r}")
        if self.base_length is not None and self.base_length < 5:
            raise ValueError("base hole length must be at least 5")


def validate_good_ear(g_prime: Graph, host: tuple[int, ...],
                      path: tuple[int, ...], apex: int,
                      apex_links: tuple[int, ...]) -> tuple[bool, str]:
    """Check the three good-ear conditions for adding the ear `path` to the
    hole `host` of g_prime.

    path runs x, interiors..., z where x and z lie on the host hole and the
    interiors are fresh vertex ids; apex is the common neighbor of x and z
    on the host; apex_links are the interiors the apex will be joined to.
    Precondition violations (not an ear at all) raise ValueError; the
    returned reason names the first failing condition.
    """
    return _good_ear(g_prime, host, path, apex, apex_links,
                     holes_of(g_prime))


def _good_ear(g_prime, host, path, apex, apex_links, holes):
    """validate_good_ear, given holes_of(g_prime) as holes."""
    _check_ear_shape(g_prime, host, path, apex, apex_links, holes)
    x, z = path[0], path[-1]
    if (2 + len(apex_links)) % 2 == 0:
        return False, "apex has an even number of neighbors on the ear"
    for h1 in holes:
        on = set(h1)
        if not {x, apex, z} <= on:
            continue
        for v in g_prime.adj[apex]:
            if v in on:
                continue
            if sum(1 for u in h1 if g_prime.has_edge(v, u)) >= 3:
                return False, (f"wheel through the attachments: hole {h1} "
                               f"with center {v}")
    apex_nbrs = set(g_prime.adj[apex])
    for h2 in holes:
        on = set(h2)
        if apex in on or not {x, z} <= on & apex_nbrs:
            continue
        if sum(1 for u in h2 if g_prime.has_edge(apex, u)) >= 3:
            return False, f"apex is a wheel center: hole {h2}"
    return True, "good"


def _check_ear_shape(g_prime, host, path, apex, apex_links, holes):
    if tuple(sorted(host)) not in {tuple(sorted(h)) for h in holes}:
        raise ValueError("host is not a hole of the graph")
    k = len(host)
    pos = {v: i for i, v in enumerate(host)}
    if apex not in pos:
        raise ValueError("apex must lie on the host hole")
    i = pos[apex]
    x, z = path[0], path[-1]
    if {x, z} != {host[i - 1], host[(i + 1) % k]}:
        raise ValueError("attachments must be the apex's host neighbors")
    interior = path[1:-1]
    if len(set(path)) != len(path):
        raise ValueError("ear path repeats a vertex")
    if any(v < g_prime.n for v in interior):
        raise ValueError("ear interior must use fresh vertex ids")
    if not set(apex_links) <= set(interior):
        raise ValueError("apex links must be interior vertices of the ear")


@dataclass(frozen=True)
class Ear:
    """One ear addition: path runs x, interiors..., z; apex is the common
    neighbor y; apex_links are the interiors adjacent to the apex; host is
    the hole the ear was attached to, in cycle order."""
    path: tuple[int, ...]
    apex: int
    apex_links: tuple[int, ...]
    host: tuple[int, ...]

    @property
    def attachments(self) -> tuple[int, int]:
        return self.path[0], self.path[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.path[1:-1]


def _add_ear(n: int, ear: Ear) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count once ear is added to a graph on n vertices, and the
    ear's edges: its path, then the apex links.  The interior must be the
    fresh ids n, n + 1, ... in path order; anything else is a ValueError."""
    interior = ear.interior
    if interior != tuple(range(n, n + len(interior))):
        raise ValueError(f"ear interior {interior} must be the fresh ids "
                         f"{n}..{n + len(interior) - 1} in path order")
    edges = list(zip(ear.path, ear.path[1:]))
    edges.extend((ear.apex, u) for u in ear.apex_links)
    return n + len(interior), edges


@dataclass(frozen=True)
class EarSequence:
    """A base hole plus good ear additions; determines the skeleton."""
    base: tuple[int, ...]
    ears: tuple[Ear, ...]


def skeleton_from_ears(es: EarSequence) -> Graph:
    """The graph built by the base hole and the recorded ear additions."""
    n = len(es.base)
    edges = [(es.base[i], es.base[(i + 1) % n]) for i in range(n)]
    for ear in es.ears:
        n, ear_edges = _add_ear(n, ear)
        edges.extend(ear_edges)
    return Graph(n, edges)


def triangulation_from_ears(es: EarSequence) -> Graph:
    """The explicit chordal supergraph of the skeleton with clique number
    at most 6.

    Per ear, the attachments and apex are made complete to the ear's
    interior and the attachment chord is added; the first edge of the base
    hole is joined to the rest of the base hole.  Ears must validate as
    good (checked against the intermediate graphs); others are rejected.
    """
    current = Graph(len(es.base),
                    [(es.base[i], es.base[(i + 1) % len(es.base)])
                     for i in range(len(es.base))])
    holes = holes_of(current)
    for ear in es.ears:
        n, ear_edges = _add_ear(current.n, ear)
        ok, reason = _good_ear(current, ear.host, ear.path, ear.apex,
                               ear.apex_links, holes)
        if not ok:
            raise ValueError(f"ear {ear.path} is not good: {reason}")
        current = current.extended(n, ear_edges)
        new = chordless_cycles_through(current, ear.interior)
        holes = list(merge(holes, [c for c in new if len(c) >= 4],
                           key=cycle_order))
    extra: set[tuple[int, int]] = set()

    def add(u: int, v: int):
        if u != v and not current.has_edge(u, v):
            extra.add((min(u, v), max(u, v)))

    for ear in es.ears:
        x, z = ear.attachments
        add(x, z)
        for w in ear.interior:
            for s in (x, ear.apex, z):
                add(s, w)
    u, v = es.base[0], es.base[1]
    for w in es.base[2:]:
        add(u, w)
        add(v, w)
    tri = current.extended(current.n, sorted(extra))
    assert is_chordal([tri.mask(w) for w in tri.vertices()]), \
        "ear triangulation must be chordal"
    return tri


def _ear_menu(max_ear_length: int, even_hole_free: bool
              ) -> list[tuple[int, tuple[int, ...]]]:
    """All (length, link positions) choices that keep the skeleton triangle-
    and 4-hole-free: links at distance >= 3 from both attachments and from
    each other.  The even-hole-free target forces odd link distances, which
    leaves exactly one link on an even-length ear."""
    menu: list[tuple[int, tuple[int, ...]]] = []
    for length in range(6, max_ear_length + 1):
        positions = range(3, length - 2)
        if even_hole_free:
            if length % 2:
                continue
            for j in positions:
                if j % 2:
                    menu.append((length, (j,)))
            continue
        patterns: list[tuple[int, ...]] = [()]
        for j in positions:
            patterns += [p + (j,) for p in patterns if not p or j - p[-1] >= 3]
        menu.extend((length, p) for p in patterns if len(p) % 2 == 1)
    return menu


def random_skeleton(params: GeneratorParams,
                    rng: Optional[Xoshiro256StarStar] = None
                    ) -> tuple[Graph, EarSequence]:
    """A triangle-free, cutset-free, odd-signable skeleton built from a
    random base hole by good ear additions.

    Each candidate ear must pass the good-ear conditions and, when
    params.target_class is the even-hole-free one, keep the graph
    even-hole-free.  Fewer ears than requested is permitted when sampling
    stalls; the ear sequence records what was built.

    No ear can make a clique cutset, so none is looked for.  The base hole
    has none.  Say the graph G before an ear has none, and S is a clique of
    the candidate.  The candidate is triangle-free, so S has at most two
    vertices, and the ear adds no edge between two vertices of G, so S
    meets G in a clique of G and G - S is connected.  The ear is an
    induced path x ... z with its ends in G (x and z share the apex, so
    they are not adjacent), so S holds at most two vertices of it, and
    adjacent ones, which lie on one side of any other vertex of the ear.
    So every interior vertex outside S reaches x or z along the ear
    without meeting S, and the candidate minus S is connected.
    """
    if rng is None:
        rng = Xoshiro256StarStar(params.seed)
    even_hole_free = params.target_class == "cap-even-hole-free"
    if params.base_length is not None:
        base_len = params.base_length
        if even_hole_free and base_len % 2 == 0:
            raise ValueError("even-hole-free target needs an odd base hole")
    elif even_hole_free:
        base_len = (5, 7)[rng.below(2)]
    else:
        base_len = 5 + rng.below(3)
    base = tuple(range(base_len))
    graph = hole(base_len)
    ears: list[Ear] = []
    menu = _ear_menu(params.max_ear_length, even_hole_free)
    attempts = 30 * params.ear_count + 10
    holes = holes_of(graph)
    while menu and len(ears) < params.ear_count and attempts > 0:
        attempts -= 1
        host = holes[rng.below(len(holes))]
        i = rng.below(len(host))
        apex = host[i]
        x, z = host[i - 1], host[(i + 1) % len(host)]
        length, link_positions = menu[rng.below(len(menu))]
        interior = tuple(range(graph.n, graph.n + length - 1))
        path = (x,) + interior + (z,)
        links = tuple(interior[j - 1] for j in link_positions)
        ok, _ = _good_ear(graph, host, path, apex, links, holes)
        if not ok:
            continue
        ear = Ear(path, apex, links, host)
        n, ear_edges = _add_ear(graph.n, ear)
        candidate = graph.extended(n, ear_edges)
        # Only the cycles through the interior are new; the ear menu keeps
        # out triangles and 4-holes.
        new = chordless_cycles_through(candidate, interior)
        assert all(len(cyc) >= 5 for cyc in new)
        if even_hole_free and any(len(cyc) % 2 == 0 for cyc in new):
            continue
        graph = candidate
        ears.append(ear)
        holes = list(merge(holes, new, key=cycle_order))
    assert odd_signing(graph, holes) is not None, \
        "generated skeleton must be odd-signable"
    return graph, EarSequence(base, tuple(ears))


def glue_atoms(atoms: list[Graph],
               joints: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]
               ) -> tuple[Graph, list[list[int]]]:
    """Identify cliques across atoms; the joint pattern must be a forest.

    Each joint (a, b, clique_a, clique_b) merges clique_a of atoms[a] with
    clique_b of atoms[b] position by position.  Returns the glued graph and
    per-atom maps from local to glued vertex ids.  Every joint clique
    becomes a clique cutset of the result.
    """
    def find(parent: list[int], i: int) -> int:
        """i's union-find root, halving the path on the way."""
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    atom_parent = list(range(len(atoms)))
    pairs = [(a, v) for a, g in enumerate(atoms) for v in g.vertices()]
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))
    for a, b, ca, cb in joints:
        if len(ca) != len(cb):
            raise ValueError("joint cliques must have equal size")
        if not atoms[a].is_clique(ca) or not atoms[b].is_clique(cb):
            raise ValueError("joint sets must be cliques")
        ra, rb = find(atom_parent, a), find(atom_parent, b)
        if ra == rb:
            raise ValueError("joint pattern must be acyclic across atoms")
        atom_parent[ra] = rb
        for u, v in zip(ca, cb):
            if atoms[a].weight(u) != atoms[b].weight(v):
                raise ValueError("identified vertices must agree on weight")
            ri, rj = find(parent, index[a, u]), find(parent, index[b, v])
            parent[max(ri, rj)] = min(ri, rj)
    rep_ids: dict[int, int] = {}
    maps = [[0] * g.n for g in atoms]
    for i, (a, v) in enumerate(pairs):
        root = find(parent, i)
        if root not in rep_ids:
            rep_ids[root] = len(rep_ids)
        maps[a][v] = rep_ids[root]
    n = len(rep_ids)
    edge_set = set()
    for a, g in enumerate(atoms):
        for u, v in g.edges():
            gu, gv = maps[a][u], maps[a][v]
            edge_set.add((min(gu, gv), max(gu, gv)))
    weighted = any(g.has_weights() for g in atoms)
    weights = None
    if weighted:
        weights = [1] * n
        for a, g in enumerate(atoms):
            for v in g.vertices():
                weights[maps[a][v]] = g.weight(v)
    return Graph(n, sorted(edge_set), weights), maps


def generate_instance(params: GeneratorParams) -> tuple[Graph, dict]:
    """A certified in-class instance plus its provenance record.

    glue_count+1 atoms are built (skeleton, blow-up, universal clique) and
    glued along cliques chosen inside single twin classes, which provably
    preserves the class.  Atoms that receive a universal clique use an
    even-hole-free skeleton regardless of target, since a universal vertex
    over an even hole would break odd-signability.
    """
    rng = Xoshiro256StarStar(params.seed)
    atoms: list[Graph] = []
    infos: list[dict] = []
    for _ in range(params.glue_count + 1):
        universal = rng.below(params.max_universal + 1)
        skeleton_params = params if universal == 0 else replace(
            params, target_class="cap-even-hole-free")
        skeleton, es = random_skeleton(skeleton_params, rng=rng)
        sizes = [1 + rng.below(params.max_blowup)
                 for _ in skeleton.vertices()]
        atom = add_universal_clique(blow_up(skeleton, sizes), universal)
        offsets = []
        total = 0
        for s in sizes:
            offsets.append(total)
            total += s
        classes = [tuple(range(offsets[v], offsets[v] + sizes[v]))
                   for v in skeleton.vertices()]
        universal_ids = tuple(range(total, total + universal))
        omega = universal + max(
            max(sizes),
            max((sizes[u] + sizes[v] for u, v in skeleton.edges()),
                default=0))
        atoms.append(atom)
        infos.append({
            "skeleton": serialize_graph(skeleton),
            "base_hole": list(es.base),
            "ears": [{"path": list(e.path), "apex": e.apex,
                      "apex_links": list(e.apex_links),
                      "host": list(e.host)} for e in es.ears],
            "ears_requested": params.ear_count,
            "blowup_sizes": sizes,
            "universal": universal,
            "even_hole_free_skeleton":
                skeleton_params.target_class == "cap-even-hole-free",
            "classes": [list(c) for c in classes],
            "universal_ids": list(universal_ids),
            "clique_number": omega,
        })
    joints = []
    for a in range(1, len(atoms)):
        b = rng.below(a)
        size = 1 + rng.below(2)
        ja = _joint_in_class(infos[a], size, rng)
        jb = _joint_in_class(infos[b], len(ja), rng)
        if len(jb) < len(ja):
            ja = ja[:len(jb)]
        joints.append((b, a, jb, ja))
    glued, maps = glue_atoms(atoms, joints)
    certify(detect_4hole(glued) is None, "generated instance has a 4-hole")
    certify(detect_cap_fast(glued) is None, "generated instance has a cap")
    provenance = {
        "params": {
            "seed": params.seed, "ear_count": params.ear_count,
            "max_ear_length": params.max_ear_length,
            "max_blowup": params.max_blowup,
            "max_universal": params.max_universal,
            "glue_count": params.glue_count,
            "target_class": params.target_class,
            "base_length": params.base_length,
        },
        "atoms": infos,
        "atom_vertex_maps": [list(m) for m in maps],
        "joints": [{"atoms": [b, a], "clique_first": list(jb),
                    "clique_second": list(ja)}
                   for b, a, jb, ja in joints],
        "clique_number": max(info["clique_number"] for info in infos),
        "n": glued.n,
        "m": glued.m,
    }
    return glued, provenance


def _joint_in_class(info: dict, size: int, rng: Xoshiro256StarStar
                    ) -> tuple[int, ...]:
    """A clique of the requested size inside one twin class of the atom."""
    pools = [tuple(c) for c in info["classes"]]
    if info["universal_ids"]:
        pools.append(tuple(info["universal_ids"]))
    big = [p for p in pools if len(p) >= size]
    if not big:
        size = 1
        big = [p for p in pools if p]
    chosen = big[rng.below(len(big))]
    start = rng.below(len(chosen) - size + 1)
    return chosen[start:start + size]
