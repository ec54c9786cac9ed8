#!/usr/bin/env python3
"""Write a workload's corpus anew from its seed, with the expected answers.

    python3 bench/write_corpus.py --workload glued --seed 7 [--out DIR]

Writes DIR/<graph>.txt in the p/e/w graph format (1-based ids) and
DIR/expected.json with the answers computed apart from the library, so the
CLI can be run on exactly the benchmark's inputs:

    PYTHONPATH=src python3 -m capfree.cli chromatic DIR/glued00.txt

DIR defaults to bench/corpus/<workload>-seed<seed>.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import WORKLOADS, use_checkout_sources


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    use_checkout_sources()
    import corpus

    out = args.out or (Path(__file__).resolve().parent / "corpus"
                       / f"{args.workload}-seed{args.seed}")
    out.mkdir(parents=True, exist_ok=True)
    answers = {}
    for item in corpus.build(args.workload, args.seed):
        exp = corpus.expected(item)
        (out / f"{item.name}.txt").write_text(item.text, encoding="utf-8")
        answers[item.name] = {
            "n": item.graph.n, "m": item.graph.m,
            "recognize_class": item.recognize_class,
            "recognize": (None if item.recognize_class is None else
                          "rejected" if exp.rejects else "accepted"),
            "clique_number": exp.omega,
            "chromatic_number": exp.chi,
            "mwss_weight": exp.mwss,
            "atoms": sorted(sorted(v + 1 for v in a) for a in exp.atoms),
            "generator": item.meta.get("params"),
        }
    (out / "expected.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "graphs": answers}, indent=1) + "\n", encoding="utf-8")
    sys.stderr.write(f"wrote {len(answers)} graphs to {out}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
