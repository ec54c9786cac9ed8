#!/usr/bin/env python3
"""Self-test of the benchmark: a brief run of every workload, untraced and
traced, each of which must attempt operations, fail none, and print every
metric named in BENCHMARK.json with its unit.

    python3 bench/selftest.py

Exits 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()}"]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(out)}")
    if (out["attempted"] < 1 or out["failed"] != 0
            or out["correct"] is not True):
        problems.append(f"{label}: attempted {out['attempted']}, failed "
                        f"{out['failed']}, correct {out['correct']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = out["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} missing or "
                            f"without unit {metric['unit']}")
    extra = set(out["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: "
                        f"{sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
