"""Seeded corpora of the three workloads, and their expected answers.

`build` makes a workload's corpus from its seed with the library's
generators, serializes every graph to the p/e/w text and parses it back with
`parse_graph`; that is the benchmark's set-up.  `expected` computes the
answers apart from the library, from the text and the construction record
only (closed forms, path/cycle dynamic programs, the generator's
provenance and exhaustive search in `reference`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from capfree import (GeneratorParams, Graph, add_universal_clique, blow_up,
                     generate_instance, glue_atoms, hole, parse_graph, path,
                     serialize_graph)

import reference as ref
from tracing import NULL

EVEN_HOLE_FREE = "cap-even-hole-free"
ODD_SIGNABLE = "cap-4hole-odd-signable"

# glued: both shapes at every glue count, so a corpus always has the same
# mix of atom counts (2 to 11 atoms) and skeleton sizes; the seed picks the
# generator seeds, the weights and which instances get an even hole.
GLUE_COUNTS = (1, 3, 6, 10)
GLUE_SHAPES = (  # target class, ears per skeleton, largest universal clique
    (EVEN_HOLE_FREE, 2, 1),
    (ODD_SIGNABLE, 3, 0),
)
PLANTED = 2             # instances per corpus that carry an even hole
MAX_GLUED_WEIGHT = 9

# about a third of the largest sizes that still pass (path(900), hole(401)),
# so a round takes about a second and a run samples every call some 25 times
SPARSE_PATH = 300
SPARSE_HOLE = 151
MAX_SPARSE_WEIGHT = 100

# blowup: (k, t, |U|, weighted) for C_{2k+1} blown up by t plus a
# universal clique U, so omega = 2t + |U| is 4 or 5.
BLOWUPS = ((2, 2, 0, False), (2, 2, 1, True), (3, 2, 0, True),
           (3, 2, 1, False), (4, 2, 0, False))
MAX_BLOWUP_WEIGHT = 20


@dataclass
class Item:
    """One corpus graph: its text, the parsed graph, the class `recognize`
    is asked about (None: not asked) and the construction record the
    reference answers are computed from."""
    name: str
    text: str
    recognize_class: Optional[str]
    meta: dict
    graph: Optional[Graph] = field(default=None, repr=False)


@dataclass(frozen=True)
class Expected:
    omega: int
    chi: int
    mwss: int
    atoms: tuple[frozenset, ...]
    rejects: bool               # recognize must reject with an even hole


@dataclass
class Case:
    """A corpus graph with its reference graph and expected answers."""
    item: Item
    ref: ref.RefGraph
    exp: Expected


def prepare(workload: str, seed: int) -> list[Case]:
    """The first corpus build, with the reference answers."""
    return [Case(item, ref.RefGraph.from_text(item.text), expected(item))
            for item in build(workload, seed)]


def rebuild(workload: str, seed: int, cases: list[Case],
            rec=NULL) -> tuple[float, bool]:
    """Build the corpus again: its set-up time, and whether it came out the
    same as the first build."""
    start = time.perf_counter()
    items = build(workload, seed, rec)
    elapsed = time.perf_counter() - start
    return elapsed, [i.text for i in items] == [c.item.text for c in cases]


def build(workload: str, seed: int, rec=NULL) -> list[Item]:
    """The workload's corpus from its seed, each graph parsed from its text."""
    rng = random.Random(f"{workload}:{seed}")
    items = {"glued": _glued, "sparse": _sparse, "blowup": _blowup}[workload](
        rng, rec)
    for item in items:
        with rec.span("graphs.parse"):
            item.graph = parse_graph(item.text)
    return items


def _weighted_text(g: Graph, rng: random.Random, top: int) -> str:
    weights = [rng.randint(1, top) for _ in range(g.n)]
    return serialize_graph(g.with_weights(weights))


def _glued(rng: random.Random, rec) -> list[Item]:
    slots = [(shape, glue) for shape in GLUE_SHAPES for glue in GLUE_COUNTS]
    planted = set(rng.sample(range(len(slots)), PLANTED))
    items = []
    for i, ((target, ears, universal), glue) in enumerate(slots):
        params = GeneratorParams(
            seed=rng.randrange(1, 2 ** 31), ear_count=ears, max_ear_length=6,
            max_blowup=1, max_universal=universal, glue_count=glue,
            target_class=target)
        with rec.span("construct.generate"):
            g, provenance = generate_instance(params)
        atoms = [sorted(set(m)) for m in provenance["atom_vertex_maps"]]
        cls = target
        planted_hole: list[int] = []
        if i in planted:
            length = rng.choice((6, 8))
            at = rng.randrange(g.n)
            g, maps = glue_atoms([g, hole(length)], [(0, 1, (at,), (0,))])
            planted_hole = list(maps[1])
            atoms.append(sorted(planted_hole))
            cls = EVEN_HOLE_FREE
        items.append(Item(
            f"glued{i:02d}", _weighted_text(g, rng, MAX_GLUED_WEIGHT), cls,
            {"kind": "glued", "atoms": atoms,
             "omega": provenance["clique_number"],
             "planted_hole": planted_hole, "params": provenance["params"]}))
    return items


def _sparse(rng: random.Random, rec) -> list[Item]:
    items = []
    for name, maker, size, cls in (("path", path, SPARSE_PATH, EVEN_HOLE_FREE),
                                   ("hole", hole, SPARSE_HOLE, None)):
        with rec.span("construct.generate"):
            g = maker(size)
        items.append(Item(f"{name}{size}",
                          _weighted_text(g, rng, MAX_SPARSE_WEIGHT), cls,
                          {"kind": name}))
    return items


def _blowup(rng: random.Random, rec) -> list[Item]:
    items = []
    for k, t, u, weighted in BLOWUPS:
        length = 2 * k + 1
        with rec.span("construct.generate"):
            g = add_universal_clique(blow_up(hole(length), [t] * length), u)
        text = (_weighted_text(g, rng, MAX_BLOWUP_WEIGHT) if weighted
                else serialize_graph(g))
        items.append(Item(
            f"c{length}x{t}u{u}", text, EVEN_HOLE_FREE,
            {"kind": "blowup", "k": k, "t": t, "universal": u,
             "weighted": weighted}))
    return items


def expected(item: Item) -> Expected:
    """The item's answers, computed without the library."""
    g = ref.RefGraph.from_text(item.text)
    meta = item.meta
    everything = frozenset(range(g.n))
    if meta["kind"] == "path":                  # vertices in path order
        atoms = tuple(frozenset((v, v + 1)) for v in range(g.n - 1))
        return Expected(2, 2, ref.path_mwss(g.weights), atoms, False)
    if meta["kind"] == "hole":                  # vertices in cycle order
        return Expected(2, 3, ref.cycle_mwss(g.weights), (everything,), False)
    if meta["kind"] == "blowup":
        # C_{2k+1} vertex i became the clique i*t .. i*t+t-1; U comes last
        k, t, u = meta["k"], meta["t"], meta["universal"]
        length = 2 * k + 1
        chi = -(-length * t // k) + u
        if meta["weighted"]:
            best = ref.cycle_mwss(max(g.weights[i * t:(i + 1) * t])
                                  for i in range(length))
            best = max([best] + list(g.weights[length * t:]))
        else:
            best = k                                  # alpha = k
        return Expected(2 * t + u, chi, best, (everything,), False)
    atoms = tuple(frozenset(a) for a in meta["atoms"])
    omega = meta["omega"]
    clique = ref.max_clique(g, (1 << g.n) - 1)
    ref.require(len(clique) == omega,
                f"{item.name}: provenance omega {omega}, exhaustive search "
                f"finds a clique of {len(clique)}")
    chi = max(ref.chromatic(g, ref.mask_of(a)) for a in atoms)
    return Expected(omega, chi, ref.mwss(g), atoms,
                    bool(meta["planted_hole"]))
