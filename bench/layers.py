"""The traced run: the library's pipeline driven layer by layer from outside.

For every corpus graph a pass calls the public functions that the commands
chain internally - 4-hole and cap tests, clique-cutset tree, and per atom:
induced subgraph, skeleton extraction, skeleton oracle, skeleton tree
decomposition, lifting and nice form, q-coloring from omega up, mwss of the
atom alone; then the merge of the colorings and the q-coloring at chi - 1.
Each call is a span named "<layer>.<call>"; counters sit at the same call
sites.  Passes alternate traced and untraced over the whole run, so the
difference of their medians is the tracing overhead.  Answers are checked
after the timed part of each pass.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from capfree import (SkeletonDecomposition, SkeletonReject,
                     clique_cutset_tree, clique_number_via_skeleton,
                     combine_colorings, detect_4hole, detect_cap_fast,
                     extract_skeleton, find_forbidden_induced, holes_of,
                     induced_subgraph, lift_tree_decomposition, mwss,
                     nice_decomposition, odd_signable_signing, q_color,
                     skeleton_tree_decomposition)

import reference as ref
from corpus import ODD_SIGNABLE, rebuild
from tracing import NULL, Recorder

# per-layer metric -> span whose summed duration it reports
SPAN_METRICS = {
    "graphs.parse_s": "graphs.parse",
    "construct.generate_s": "construct.generate",
    "recognition.four_hole_s": "recognition.detect_4hole",
    "recognition.cap_s": "recognition.detect_cap_fast",
    "decomposition.cutset_tree_s": "decomposition.clique_cutset_tree",
    "graphs.induced_subgraph_s": "graphs.induced_subgraph",
    "twins.extract_skeleton_s": "twins.extract_skeleton",
    "oracles.skeleton_oracle_s": "oracles.skeleton_oracle",
    "treewidth.skeleton_td_s": "treewidth.skeleton_tree_decomposition",
    "treewidth.lift_nice_s": "treewidth.lift_nice",
    "solvers.q_color_s": "solvers.q_color",
    "solvers.q_color_no_s": "solvers.q_color_no",
    "solvers.combine_colorings_s": "solvers.combine_colorings",
    "solvers.mwss_atom_s": "solvers.mwss_atom",
}
COUNT_METRICS = {
    "decomposition.atoms": "atoms",
    "twins.skeleton_vertices": "skeleton_vertices",
    "oracles.skeleton_holes": "skeleton_holes",
    "treewidth.nice_nodes": "nice_nodes",
    "solvers.q_color_tries": "q_color_tries",
    "solvers.mwss_queries": "mwss_queries",
}
MAX_METRICS = {
    "treewidth.skeleton_width_max": "skeleton_width",
    "treewidth.lifted_width_max": "lifted_width",
}
LAYERS = ("graphs", "construct", "recognition", "decomposition", "twins",
          "oracles", "treewidth", "solvers", "bench")


def reference_loop() -> int:
    """Fixed pure-Python work: its time tracks the host's speed only."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


@dataclass
class AtomOutcome:
    back: tuple[int, ...]
    atom: object
    chi: int
    coloring: dict[int, int]
    stable: object
    lifted: object = None
    skeleton: Optional[SkeletonDecomposition] = None    # None: complete
    oracle_found: object = None


@dataclass
class GraphOutcome:
    four_hole: object = None
    cap: object = None
    tree: object = None
    atoms: list[AtomOutcome] = field(default_factory=list)
    chi: int = 0
    colors: list[int] = field(default_factory=list)
    colorable_below: bool = False    # colorable with chi - 1 colors


def graph_pass(case, rec) -> GraphOutcome:
    g, item = case.item.graph, case.item
    out = GraphOutcome()
    with rec.span("bench.graph"):
        if item.recognize_class is not None:
            with rec.span("recognition.detect_4hole"):
                out.four_hole = detect_4hole(g)
            with rec.span("recognition.detect_cap_fast"):
                out.cap = detect_cap_fast(g)
        with rec.span("decomposition.clique_cutset_tree"):
            out.tree = clique_cutset_tree(g)
        leaves = out.tree.leaves()
        rec.count("atoms", len(leaves))
        out.atoms = [atom_pass(case, leaf.vertices, rec) for leaf in leaves]
        out.chi = max(a.chi for a in out.atoms)
        with rec.span("solvers.combine_colorings"):
            out.colors = combine_colorings(
                out.tree, [a.coloring for a in out.atoms], out.chi)
        if out.chi > 1:
            out.colorable_below = _colorable_with(out.atoms, out.chi - 1,
                                                  rec)
        rec.count("mwss_queries", sum(len(node.cutset) + 1 for node
                                      in out.tree.internal_nodes()
                                      if node.cutset))
        with rec.span("host.ref_loop"):
            reference_loop()
    return out


def atom_pass(case, vertices, rec) -> AtomOutcome:
    with rec.span("graphs.induced_subgraph"):
        atom, back = induced_subgraph(case.item.graph, vertices)
    with rec.span("twins.extract_skeleton"):
        sd = extract_skeleton(atom)
    if isinstance(sd, SkeletonReject):
        raise ref.CheckFailed(f"{case.item.name}: atom rejected as {sd.kind}")
    if not isinstance(sd, SkeletonDecomposition):       # a complete atom
        with rec.span("solvers.mwss_atom"):
            stable = mwss(atom)
        return AtomOutcome(back, atom, atom.n,
                           {back[v]: v + 1 for v in atom.vertices()}, stable)
    rec.count("skeleton_vertices", sd.skeleton.n)
    with rec.span("oracles.skeleton_oracle"):
        if case.item.recognize_class == ODD_SIGNABLE and not sd.universal:
            found = odd_signable_signing(sd.skeleton)
        else:
            found = find_forbidden_induced(sd.skeleton, "even-hole")
    with rec.span("treewidth.skeleton_tree_decomposition"):
        td = skeleton_tree_decomposition(sd.skeleton)
    rec.peak("skeleton_width", td.width)
    with rec.span("treewidth.lift_nice"):
        lifted = lift_tree_decomposition(td, sd)
        nice = nice_decomposition(lifted)
    rec.count("nice_nodes", len(nice.nodes))
    rec.peak("lifted_width", lifted.width)
    omega = clique_number_via_skeleton(sd)
    colors = None
    q = omega
    while colors is None and q <= (3 * omega + 1) // 2:
        rec.count("q_color_tries")
        with rec.span("solvers.q_color"):
            colors = q_color(atom, lifted, q)
        q += colors is None
    if colors is None:
        raise ref.CheckFailed(f"{case.item.name}: an atom needs more than "
                              f"ceil(3/2 omega) colors")
    with rec.span("solvers.mwss_atom"):
        stable = mwss(atom)
    return AtomOutcome(back, atom, q,
                       {back[v]: c for v, c in enumerate(colors)}, stable,
                       lifted, sd, found)


def _colorable_with(atoms: list[AtomOutcome], q: int, rec) -> bool:
    """Whether every atom has a q-coloring, atom by atom until the first
    that has none, as q_color_graph decides it."""
    for a in atoms:
        if a.skeleton is None:                          # a complete atom
            if a.atom.n > q:
                return False
            continue
        with rec.span("solvers.q_color_no"):
            colors = q_color(a.atom, a.lifted, q)
        if colors is None:
            return False
    return True


def check(case, out: GraphOutcome) -> None:
    name, exp, g = case.item.name, case.exp, case.ref
    ref.require(out.four_hole is None and out.cap is None,
                f"{name}: 4-hole or cap reported in a (cap, 4-hole)-free "
                f"graph")
    ref.check_cutset_tree(g, out.tree.root, exp.atoms, f"{name} tree")
    ref.require(out.chi == exp.chi,
                f"{name}: atom colorings need {out.chi}, expected {exp.chi}")
    ref.check_coloring(g, out.colors, exp.chi, f"{name} merged coloring")
    ref.require(not out.colorable_below,
                f"{name}: every atom colored with chi - 1 colors")
    even_holes = 0
    for a in out.atoms:
        picked = [a.back[v] for v in a.stable.vertices]
        ref.check_stable(g, picked, f"{name} atom mwss")
        ref.require(sum(g.weights[v] for v in picked) == a.stable.weight,
                    f"{name}: atom mwss weight bookkeeping")
        if a.skeleton is None:
            continue
        found = a.oracle_found
        if isinstance(found, dict) or found is None:
            continue                       # a signing, or no even hole
        reps = a.skeleton.representatives
        ref.check_even_hole(g, [a.back[reps[v]] for v in found.vertices],
                            f"{name} skeleton even hole")
        even_holes += 1
    if case.item.recognize_class == ODD_SIGNABLE:
        signed = [a.oracle_found for a in out.atoms
                  if a.skeleton is not None and not a.skeleton.universal]
        ref.require(None not in signed,
                    f"{name}: a skeleton is not odd-signable")
    ref.require(bool(even_holes) == exp.rejects,
                f"{name}: skeleton oracles found {even_holes} even holes")


def run(args, cases, tally) -> dict:
    """Alternate traced and untraced passes until the time is up."""
    seconds: dict[str, list[float]] = {"traced": [], "untraced": []}
    recorders: list[Recorder] = []
    holes: dict[tuple, int] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        for mode in ("traced", "untraced"):
            rec = Recorder() if mode == "traced" else NULL
            start = time.perf_counter()
            _, same = rebuild(args.workload, args.seed, cases, rec)
            if not same:
                tally.mismatch("corpus rebuild differs from the first build")
            outcomes = []
            for case in cases:
                try:
                    outcomes.append((case, graph_pass(case, rec)))
                except Exception as exc:  # a crash fails this graph's pass
                    tally.attempted += 1
                    tally.fail(f"{case.item.name} pipeline: "
                               f"{type(exc).__name__}: {exc}",
                               isinstance(exc, ref.CheckFailed))
            seconds[mode].append(time.perf_counter() - start)
            for case, out in outcomes:
                tally.attempted += 1
                try:
                    check(case, out)
                except ref.CheckFailed as exc:
                    tally.fail(str(exc), True)
            if mode == "traced":
                recorders.append(rec)
                _count_holes(outcomes, rec, holes)
        if time.perf_counter() >= deadline:
            break
    return {"metrics": _metrics(recorders, seconds),
            "trace": {"workload": args.workload, "seed": args.seed,
                      "pass_seconds": seconds,
                      "passes": [r.as_json() for r in recorders]}}


def _count_holes(outcomes, rec: Recorder, cache: dict) -> None:
    """Holes of every skeleton the oracle examined, counted outside the
    timed pass (once per skeleton)."""
    for case, out in outcomes:
        for j, a in enumerate(out.atoms):
            if a.skeleton is not None:
                key = case.item.name, j
                if key not in cache:
                    cache[key] = len(holes_of(a.skeleton.skeleton))
                rec.count("skeleton_holes", cache[key])


def _metrics(recorders: list[Recorder], seconds) -> dict:
    def median_of(values):
        return statistics.median(values) if values else 0.0

    totals = [r.totals() for r in recorders]
    selfs = [r.self_times() for r in recorders]
    last = recorders[-1]
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = {"value": median_of([t[span] for t in totals]),
                         "unit": "s"}
    for name, key in COUNT_METRICS.items():
        metrics[name] = {"value": last.counts[key], "unit": "count"}
    for name, key in MAX_METRICS.items():
        metrics[name] = {"value": last.maxima[key], "unit": "count"}
    loops = [end - start for r in recorders
             for _, span, start, end, _ in r.spans if span == "host.ref_loop"]
    metrics["host.ref_loop_ms"] = {"value": 1e3 * median_of(loops),
                                   "unit": "ms"}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {
            "value": median_of([s[layer] for s in selfs]), "unit": "s"}
    traced, untraced = (median_of(seconds["traced"]),
                        median_of(seconds["untraced"]))
    metrics["trace.overhead_pct"] = {
        "value": 100 * (traced - untraced) / untraced, "unit": "%"}
    metrics["trace.spans"] = {"value": len(last.spans), "unit": "count"}
    return metrics
