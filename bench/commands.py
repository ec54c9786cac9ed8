"""The end-to-end operations: one library call per command and graph, each
with the check its answer must pass.

`operations(case)` lists the calls a round makes on it, in round-robin
order; `Op.check` raises `reference.CheckFailed` on a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from capfree import (chromatic_number, clique_cutset_tree, clique_number,
                     mwss, q_color_graph, recognize)

import reference as ref
from corpus import EVEN_HOLE_FREE, Case

# command -> end-to-end metric; color counts both its yes and no answers
METRICS = {
    "recognize": "recognize_per_s",
    "decompose": "decompose_per_s",
    "clique_number": "clique_number_per_s",
    "mwss": "mwss_per_s",
    "chromatic": "chromatic_per_s",
    "color": "color_per_s",
}


@dataclass
class Op:
    command: str
    key: str                       # unique within a case
    call: Callable[[], Any]
    check: Callable[[Any], None]


def operations(case: Case) -> list[Op]:
    g, item, exp = case.item.graph, case.item, case.exp
    ops = []
    if item.recognize_class is not None:
        cls = item.recognize_class
        ops.append(Op("recognize", "recognize", lambda: recognize(g, cls),
                      lambda v: check_verdict(case, v)))
    ops += [
        Op("decompose", "decompose", lambda: clique_cutset_tree(g),
           lambda tree: ref.check_cutset_tree(case.ref, tree.root, exp.atoms,
                                              f"{item.name} decompose")),
        Op("clique_number", "clique_number", lambda: clique_number(g),
           lambda r: check_clique_number(case, r)),
        Op("mwss", "mwss", lambda: mwss(g), lambda r: check_mwss(case, r)),
        Op("chromatic", "chromatic", lambda: chromatic_number(g),
           lambda r: check_chromatic(case, r)),
        Op("color", "color_yes", lambda: q_color_graph(g, exp.chi),
           lambda r: check_color_yes(case, r)),
    ]
    if exp.chi > 1:
        ops.append(Op("color", "color_no",
                      lambda: q_color_graph(g, exp.chi - 1),
                      lambda r: ref.require(
                          r is None, f"{item.name}: q_color_graph colors with "
                          f"chi-1 = {exp.chi - 1} colors")))
    return ops


def check_verdict(case: Case, verdict) -> None:
    name, exp = case.item.name, case.exp
    if exp.rejects:
        ref.require(verdict.status == "rejected",
                    f"{name}: recognize says {verdict.status} on a graph "
                    f"with a planted even hole")
        witness = verdict.witness
        ref.require(witness is not None and witness.kind == "even-hole",
                    f"{name}: rejection without an even-hole witness")
        ref.check_even_hole(case.ref, witness.vertices, f"{name} witness")
        return
    ref.require(verdict.status == "accepted",
                f"{name}: recognize says {verdict.status} ({verdict.detail})")
    reports = verdict.atoms
    ref.require(sorted(sorted(r.vertices) for r in reports)
                == sorted(sorted(a) for a in exp.atoms),
                f"{name}: certificate atoms differ from the generated atoms")
    for report in reports:
        _check_atom_report(case, report)


def _check_atom_report(case: Case, report) -> None:
    """The certificate of one atom: a clique, or twin classes (cliques)
    plus a universal clique that together cover the atom exactly."""
    name = case.item.name
    if report.complete:
        ref.check_clique(case.ref, report.vertices, f"{name} complete atom")
        return
    sd = report.skeleton
    local = sorted(report.vertices)
    classes = [[local[v] for v in cls] for cls in sd.classes]
    universal = [local[v] for v in sd.universal]
    covered = [v for cls in classes for v in cls] + universal
    ref.require(sorted(covered) == local,
                f"{name}: skeleton classes do not partition the atom")
    for cls in classes:
        ref.check_clique(case.ref, cls, f"{name} twin class")
    atom_mask = ref.mask_of(local)
    for u in universal:
        ref.require(case.ref.adj[u] & atom_mask == atom_mask & ~(1 << u),
                    f"{name}: universal vertex {u} misses an atom vertex")
    oracle = ("even-hole-free"
              if case.item.recognize_class == EVEN_HOLE_FREE or universal
              else "odd-signable")
    ref.require(report.oracle == oracle,
                f"{name}: atom certified by {report.oracle}, "
                f"expected {oracle}")


def check_clique_number(case: Case, result) -> None:
    value, witness = result
    ref.require(value == case.exp.omega,
                f"{case.item.name}: omega {value}, expected {case.exp.omega}")
    ref.require(len(witness) == value,
                f"{case.item.name}: clique witness has {len(witness)} "
                f"vertices")
    ref.check_clique(case.ref, witness, f"{case.item.name} clique witness")


def check_mwss(case: Case, result) -> None:
    name = case.item.name
    ref.check_stable(case.ref, result.vertices, f"{name} mwss")
    weight = sum(case.ref.weights[v] for v in result.vertices)
    ref.require(weight == result.weight,
                f"{name}: mwss reports {result.weight}, its set weighs "
                f"{weight}")
    ref.require(weight == case.exp.mwss,
                f"{name}: mwss {weight}, expected {case.exp.mwss}")


def check_chromatic(case: Case, result) -> None:
    chi, colors = result
    name = case.item.name
    ref.require(chi == case.exp.chi,
                f"{name}: chi {chi}, expected {case.exp.chi}")
    ref.check_coloring(case.ref, colors, chi, f"{name} chromatic")
    ref.check_three_halves(case.exp.omega, chi, name)


def check_color_yes(case: Case, colors) -> None:
    ref.require(colors is not None,
                f"{case.item.name}: no coloring with chi = {case.exp.chi}")
    ref.check_coloring(case.ref, colors, case.exp.chi,
                       f"{case.item.name} q-coloring")
