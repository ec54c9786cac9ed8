"""Pinned CLI outputs: the exit code and JSON of every answering command
on the first 40 selftest instances and the five reject fixtures of
criterion 11, as one sha256.  A refactor that should change no output can
show that it changed none; a change that alters an output on purpose
updates the pin and lists the changed outputs in CHANGES.md.

A second sha256 pins `decompose --dot` on the same graphs plus a path and
a disconnected graph, whose tree splits along the empty cutset that the
DOT writer labels "empty".

A third sha256 pins `treewidth` on the 45 graphs of the first.

To print the current digests: python tests/test_pinned_cli.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from capfree import Graph, add_universal_clique, hole, serialize_graph
from capfree.cli import main
from capfree.construct import TARGET_CLASSES
from capfree.selftest import standard_instances

REJECT_FIXTURES = {
    "even-wheel": lambda: add_universal_clique(hole(4), 1),
    "K23": lambda: Graph(5, [(0, 2), (0, 3), (0, 4),
                             (1, 2), (1, 3), (1, 4)]),
    "prism": lambda: Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                               (5, 3), (0, 3), (1, 4), (2, 5)]),
    "house": lambda: Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                               (4, 0), (4, 1)]),
    "C4": lambda: hole(4),
}


def _graphs():
    for seed, g, _ in standard_instances()[:40]:
        yield f"seed{seed}", g
    for name, build in REJECT_FIXTURES.items():
        yield name, build()


# P5, and two 5-holes and an isolated vertex: its components split off
# along ().
DOT_FIXTURES = {
    "P5": lambda: Graph(5, [(v, v + 1) for v in range(4)]),
    "2C5+K1": lambda: Graph(11, hole(5).edges()
                            + [(u + 5, v + 5) for u, v in hole(5).edges()]),
}


def _run(*argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return [code, out.getvalue()]


def outputs(path: str) -> dict:
    """Every pinned command's exit code and stdout on the graph file."""
    doc = {f"recognize {cls}": _run("recognize", "--class", cls, path)
           for cls in TARGET_CLASSES}
    for command in ("decompose", "clique-number", "mwss", "chromatic"):
        doc[command] = _run(command, path)
    chi = json.loads(doc["chromatic"][1])["chi"]
    for q in (chi, chi - 1):
        doc[f"color {q}"] = _run("color", "-q", str(q), path)
    return doc


def _digest(graphs, output) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, g in graphs:
            file = Path(tmp) / f"{name}.graph"
            file.write_text(serialize_graph(g), encoding="utf-8")
            text = json.dumps(output(str(file)), sort_keys=True)
            h.update(f"{name}\n{text}\n".encode())
    return h.hexdigest()


def digest() -> str:
    return _digest(_graphs(), outputs)


def dot_digest() -> str:
    graphs = [*_graphs(), *((name, build()) for name, build
                            in DOT_FIXTURES.items())]
    return _digest(graphs, lambda file: _run("decompose", "--dot", file))


def treewidth_digest() -> str:
    return _digest(_graphs(), lambda file: _run("treewidth", file))


PINNED_CLI_DIGEST = (
    "7eaf74a8a10618b2d266ab57e45aaca57fe3fb85ba699f5855e0dc3ce3f976b8")


PINNED_DOT_DIGEST = (
    "16edd264016557ee44ca8a04301f71298e4b418728a57c6a9b0e4ef86239a09a")


PINNED_TREEWIDTH_DIGEST = (
    "91a77825f49ae161af398ebd3bfe77a4f671d2cd0fd1fe5d695e88aa3e5774a2")


def test_cli_outputs_match_their_pin():
    assert digest() == PINNED_CLI_DIGEST


def test_dot_outputs_match_their_pin():
    assert dot_digest() == PINNED_DOT_DIGEST


def test_treewidth_outputs_match_their_pin():
    assert treewidth_digest() == PINNED_TREEWIDTH_DIGEST


if __name__ == "__main__":
    print(digest())
    print(dot_digest())
    print(treewidth_digest())
