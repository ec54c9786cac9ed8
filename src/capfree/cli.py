"""Command-line front end.

stdout carries exactly one JSON document per invocation (or DOT under
`decompose --dot`, or graph text under `generate` without --out); human
summaries go to stderr.  Vertex ids in JSON are 1-based, matching the
graph file format.  Exit codes: 0 success/accepted, 1 rejected or negative
answer, 2 usage or input errors, 3 undecided: a search ran out of its
--budget of nodes, 4 internal failure (stdout carries {"error": ...}).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Optional

from . import selftest as selftest_mod
from .construct import TARGET_CLASSES, GeneratorParams, generate_instance
from .decomposition import clique_cutset_tree, find_clique_cutset, tree_to_dot
from .graphs import Graph, GraphFormatError, parse_graph, serialize_graph
from .oracles import (BRUTE_PROBLEMS, DEFAULT_BUDGET, ForbiddenWitness,
                      SearchBudgetExceeded, brute_solve,
                      enumerate_chordless_cycles, find_forbidden_induced,
                      odd_signable_signing)
from .recognition import recognize
from .solvers import (chromatic_number, clique_number, greedy_color, mwss,
                      q_color_graph)
from .treewidth import min_fill_decomposition
from .twins import (COMPLETE_ATOM, SkeletonReject, extract_skeleton)

USAGE_ERROR = 2
UNDECIDED_EXIT = 3
INTERNAL_ERROR = 4

FORBIDDEN_KINDS = ("even-hole", "4-hole", "cap", "theta", "prism",
                   "even-wheel", "triangle")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _info(message: str) -> None:
    sys.stderr.write(message + "\n")


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _ids(vs) -> list[int]:
    return [v + 1 for v in vs]


def _witness_json(w: Optional[ForbiddenWitness]):
    if w is None:
        return None
    return {"kind": w.kind, "vertices": _ids(w.vertices),
            "parts": [_ids(p) for p in w.parts]}


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    return value


def cmd_recognize(args) -> int:
    g = _read_graph(args.file)
    verdict = recognize(g, args.cls, budget=args.budget)
    out = {"class": args.cls, "status": verdict.status,
           "witness": _witness_json(verdict.witness)}
    if verdict.status == "accepted":
        out["atoms"] = [
            {"vertices": _ids(r.vertices), "complete": r.complete,
             "skeleton_size": None if r.complete else r.skeleton.skeleton.n,
             "universal": None if r.complete
             else _ids(r.vertices[u] for u in r.skeleton.universal),
             "oracle": r.oracle}
            for r in verdict.atoms]
    if verdict.detail:
        out["detail"] = verdict.detail
    _emit(out)
    _info(f"{args.cls}: {verdict.status}")
    if verdict.status == "accepted":
        return 0
    if verdict.status == "rejected":
        return 1
    return UNDECIDED_EXIT


def cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    tree = clique_cutset_tree(g)
    if args.dot:
        sys.stdout.write(tree_to_dot(tree))
        return 0
    _emit({
        "atoms": [_ids(a) for a in tree.atoms()],
        "cutsets": [_ids(cutset) for cutset, _ in tree.pieces[:-1]],
        "leaf_count": len(tree.atoms()),
    })
    return 0


def cmd_skeleton(args) -> int:
    g = _read_graph(args.file)
    cut = find_clique_cutset(g)
    if cut is not None:
        _emit({"error": "input has a clique cutset",
               "cutset": _ids(cut[0])})
        return 1
    extracted = extract_skeleton(g)
    if extracted == COMPLETE_ATOM:
        _emit({"complete_atom": True})
        return 0
    if isinstance(extracted, SkeletonReject):
        _emit({"reject": {"kind": extracted.kind,
                          "vertices": _ids(extracted.vertices)}})
        return 1
    _emit({
        "complete_atom": False,
        "skeleton": serialize_graph(extracted.skeleton),
        "classes": {str(i + 1): _ids(cls)
                    for i, cls in enumerate(extracted.classes)},
        "universal": _ids(extracted.universal),
    })
    return 0


def cmd_treewidth(args) -> int:
    g = _read_graph(args.file)
    td = min_fill_decomposition(g)
    _emit({"width": td.width, "bags": [_ids(b) for b in td.bags],
           "tree_edges": [list(e) for e in td.edges],
           "exact": td.width <= 5
           and find_forbidden_induced(g, "triangle") is None})
    return 0


def cmd_clique_number(args) -> int:
    g = _read_graph(args.file)
    value, witness = clique_number(g, budget=args.budget)
    _emit({"value": value, "witness": _ids(witness)})
    return 0


def cmd_greedy_color(args) -> int:
    g = _read_graph(args.file)
    colors = greedy_color(g)
    _emit({"colors": colors, "count": max(colors, default=0)})
    return 0


def cmd_color(args) -> int:
    g = _read_graph(args.file)
    colors = q_color_graph(g, args.q, budget=args.budget)
    if colors is None:
        _emit({"colorable": False, "q": args.q})
        return 1
    _emit({"colorable": True, "q": args.q, "colors": colors})
    return 0


def cmd_chromatic(args) -> int:
    g = _read_graph(args.file)
    chi, colors = chromatic_number(g, budget=args.budget)
    _emit({"chi": chi, "colors": colors})
    return 0


def cmd_mwss(args) -> int:
    g = _read_graph(args.file)
    result = mwss(g, budget=args.budget)
    _emit({"weight": result.weight, "vertices": _ids(result.vertices)})
    return 0


def cmd_generate(args) -> int:
    params = GeneratorParams(
        seed=args.seed, ear_count=args.ears,
        max_ear_length=args.max_ear_len, max_blowup=args.max_blowup,
        max_universal=args.max_universal, glue_count=args.glue,
        target_class=args.cls, base_length=args.base_length)
    g, provenance = generate_instance(params)
    text = serialize_graph(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        sidecar = Path(args.out).with_suffix(
            Path(args.out).suffix + ".provenance.json")
        sidecar.write_text(
            json.dumps(provenance, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        _emit({"out": str(args.out), "provenance": str(sidecar),
               "n": g.n, "m": g.m,
               "clique_number": provenance["clique_number"]})
    else:
        _emit({"graph": text, "provenance": provenance})
    _info(f"generated n={g.n} m={g.m} omega={provenance['clique_number']}")
    return 0


def cmd_oracle(args) -> int:
    kind, budget = args.kind, args.budget
    if args.max_len is not None and kind != "chordless-cycles":
        raise ValueError("--max-len applies to chordless-cycles only")
    g = _read_graph(args.file)
    if kind == "chordless-cycles":
        cycles = enumerate_chordless_cycles(g, args.max_len, budget=budget)
        _emit({"count": len(cycles), "cycles": [_ids(c) for c in cycles]})
        return 0
    if kind == "odd-signable":
        signing = odd_signable_signing(g, budget=budget)
        if signing is None:
            _emit({"odd_signable": False})
            return 1
        _emit({"odd_signable": True,
               "signing": {f"{u + 1} {v + 1}": val
                           for (u, v), val in sorted(signing.items())}})
        return 0
    if kind in FORBIDDEN_KINDS:
        witness = find_forbidden_induced(g, kind, budget=budget)
        _emit({"kind": kind, "witness": _witness_json(witness)})
        return 0
    result = brute_solve(g, kind, budget=budget)
    if kind == "clique-cutset":
        _emit({"cutset": None if result.witness is None
               else _ids(result.witness)})
    else:
        _emit({"value": result.value, "witness": _ids(result.witness)})
    return 0


def cmd_selftest(args) -> int:
    results = selftest_mod.run_all(report=_info)
    _emit({
        "criteria": [{"name": r.name, "passed": r.passed,
                      "seconds": round(r.seconds, 2), "detail": r.detail}
                     for r in results],
        "passed": all(r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capfree",
        description="Decomposition, recognition, coloring and stable-set "
                    "algorithms for (cap, even-hole)-free graphs.")
    parser.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET,
                        help="nodes each exhaustive search may visit "
                             f"(default {DEFAULT_BUDGET})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide class membership")
    p.add_argument("--class", dest="cls", required=True,
                   choices=TARGET_CLASSES)
    p.add_argument("file")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("decompose", help="clique-cutset decomposition tree")
    p.add_argument("--dot", action="store_true",
                   help="emit DOT instead of JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("skeleton", help="skeleton of a cutset-free graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_skeleton)

    p = sub.add_parser("treewidth", help="min-fill tree decomposition")
    p.add_argument("file")
    p.set_defaults(fn=cmd_treewidth)

    p = sub.add_parser("clique-number", help="omega via the skeleton")
    p.add_argument("file")
    p.set_defaults(fn=cmd_clique_number)

    p = sub.add_parser("greedy-color", help="degeneracy-order greedy coloring")
    p.add_argument("file")
    p.set_defaults(fn=cmd_greedy_color)

    p = sub.add_parser("color", help="q-coloring decision with certificate")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    p.add_argument("file")
    p.set_defaults(fn=cmd_chromatic)

    p = sub.add_parser("mwss", help="maximum weight stable set")
    p.add_argument("file")
    p.set_defaults(fn=cmd_mwss)

    p = sub.add_parser("generate", help="generate a certified instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ears", type=int, default=0)
    p.add_argument("--max-ear-len", type=int, default=6)
    p.add_argument("--max-blowup", type=int, default=1)
    p.add_argument("--max-universal", type=int, default=0)
    p.add_argument("--glue", type=int, default=0)
    p.add_argument("--class", dest="cls", default="cap-even-hole-free",
                   choices=TARGET_CLASSES)
    p.add_argument("--base-length", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("oracle", help="brute-force reference oracles")
    p.add_argument("kind", choices=("chordless-cycles", "odd-signable")
                   + FORBIDDEN_KINDS + BRUTE_PROBLEMS)
    p.add_argument("--max-len", type=_nonnegative, default=None,
                   help="longest cycle chordless-cycles lists")
    p.add_argument("file")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        _info(f"input error: {exc}")
        return USAGE_ERROR
    except FileNotFoundError as exc:
        _info(f"input error: {exc}")
        return USAGE_ERROR
    except SearchBudgetExceeded as exc:
        _emit({"error": "undecided", "detail": str(exc)})
        return UNDECIDED_EXIT
    except ValueError as exc:
        _info(f"error: {exc}")
        return USAGE_ERROR
    except Exception as exc:
        _info(traceback.format_exc().rstrip())
        _emit({"error": "internal",
               "detail": f"{type(exc).__name__}: {exc}"})
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
