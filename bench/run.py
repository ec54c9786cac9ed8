#!/usr/bin/env python3
"""capfree benchmark: seeded workloads, checked answers, one JSON result.

    python3 bench/run.py --workload {glued,sparse,blowup} --seed N \
        --seconds S --trace {0,1}

One process, one thread, closed loop: each library call starts when the
previous one has returned.  A round calls every command on every corpus
graph in turn (round-robin), so a slow spell of the host hits every metric
alike; rounds repeat until --seconds have passed, and every call's answer
is checked.  Each rate is taken from the median time of every (graph,
call) pair over all rounds, so it rests on samples spread across the run;
every time is first scaled to a reference host speed (REFERENCE_LOOP_S).

--trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
pipeline of `layers.py` instead and prints the per-layer metrics (see
README.md).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules that import capfree (corpus, commands, layers) are imported inside
# the functions below, after use_checkout_sources() has put src/ on the path.
SRC = Path(__file__).resolve().parent.parent / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

WORKLOADS = ("glued", "sparse", "blowup")

# corpus builds per round: enough samples for a millisecond set-up to repeat
SETUP_REPEATS = {"glued": 1, "sparse": 10, "blowup": 10}

# Times are scaled to a host that runs the reference loop in this long: the
# loop runs after every round, and the round's times are multiplied by this
# over the loop's time.  The shared host switches between fast and slow
# spells of 10 to 30 s that move the calls and the loop alike; unscaled, the
# rates of separately started runs spread by 20 to 30 %.
REFERENCE_LOOP_S = 0.010


def use_checkout_sources() -> None:
    """Import capfree from the src/ tree next to this benchmark, never from
    an installed copy; exit 2 when the sources are missing."""
    if not (SRC / "capfree" / "__init__.py").is_file():
        sys.stderr.write(f"bench: capfree sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def fail(self, message: str, wrong: bool) -> None:
        """A failed operation: it raised, or (wrong) its answer is wrong."""
        self.failed += 1
        if wrong:
            self.mismatch(message)
        else:
            self._note(message)

    def mismatch(self, message: str) -> None:
        """A wrong result; sets `correct` to false."""
        self.wrong += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)


def timed_rounds(args, cases, tally: Tally):
    """Round-robin over every (graph, call) until the time is up; returns
    the plan, per-(graph, call) samples and set-up samples (both scaled to
    the reference host speed), reference loop times and the round count."""
    from commands import operations
    from corpus import rebuild
    from layers import reference_loop
    from reference import CheckFailed

    plan = [(i, op) for i, case in enumerate(cases)
            for op in operations(case)]
    samples: dict[tuple[int, str], list[float]] = defaultdict(list)
    setups: list[float] = []
    host: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        builds = []
        calls = []
        for _ in range(SETUP_REPEATS[args.workload]):
            elapsed, same = rebuild(args.workload, args.seed, cases)
            builds.append(elapsed)
            if not same:
                tally.mismatch("corpus rebuild differs from the first build")
        for i, op in plan:
            tally.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a crash is a failed operation
                tally.fail(f"{cases[i].item.name} {op.key}: "
                           f"{type(exc).__name__}: {exc}", False)
                continue
            elapsed = time.perf_counter() - start
            try:
                op.check(result)
            except CheckFailed as exc:
                tally.fail(str(exc), True)
                continue
            calls.append(((i, op.key), elapsed))
        start = time.perf_counter()
        reference_loop()
        host.append(time.perf_counter() - start)
        scale = REFERENCE_LOOP_S / host[-1]
        setups.extend(elapsed * scale for elapsed in builds)
        for key, elapsed in calls:
            samples[key].append(elapsed * scale)
        if time.perf_counter() >= deadline:
            return plan, samples, setups, host


def end_to_end(args) -> dict:
    from commands import METRICS
    from corpus import prepare

    tally = Tally()
    cases = prepare(args.workload, args.seed)
    plan, samples, setups, host = timed_rounds(args, cases, tally)
    busy: dict[str, float] = defaultdict(float)
    answered: dict[str, int] = defaultdict(int)
    for i, op in plan:
        if samples.get((i, op.key)):
            busy[op.command] += statistics.median(samples[i, op.key])
            answered[op.command] += 1
    metrics = {}
    for command, name in METRICS.items():
        rate = answered[command] / busy[command] if answered[command] else 0.0
        metrics[name] = {"value": rate, "unit": "1/s"}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    sys.stderr.write(f"{args.workload} seed {args.seed}: {len(host)} rounds, "
                     f"{len(cases)} graphs, {len(plan)} calls per round; "
                     f"reference loop {1e3 * min(host):.2f} ms fastest, "
                     f"{1e3 * statistics.median(host):.2f} ms median; times "
                     f"scaled to {1e3 * REFERENCE_LOOP_S:.0f} ms\n")
    return result(tally, metrics)


def traced(args) -> dict:
    import layers
    from corpus import prepare

    tally = Tally()
    cases = prepare(args.workload, args.seed)
    report = layers.run(args, cases, tally)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(report.pop("trace")) + "\n", encoding="utf-8")
    sys.stderr.write(f"trace written to {out}\n")
    return result(tally, report["metrics"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def result(tally: Tally, metrics: dict) -> dict:
    for note in tally.notes:
        sys.stderr.write(f"FAILED: {note}\n")
    for name, metric in metrics.items():
        sys.stderr.write(
            f"  {name} = {metric['value']:.6g} {metric['unit']}\n")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    outcome = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
