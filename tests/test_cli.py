import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from capfree import cli
from capfree.cli import main
from capfree.construct import glue_atoms
from capfree.graphs import (Graph, add_universal_clique, blow_up, complete,
                            cube, hajos, hole, parse_graph, path,
                            serialize_graph)

PRISM = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                  (0, 3), (1, 4), (2, 5)])
K23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(serialize_graph(g), encoding="utf-8")
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_recognize_accepts_g1(graph_file, capsys):
    f = graph_file("g1.graph", blow_up(hole(5), [2] * 5))
    code, out = run(capsys, "recognize", "--class", "cap-even-hole-free", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "accepted" and doc["witness"] is None
    assert doc["atoms"][0]["skeleton_size"] == 5


def test_recognize_rejects_c4(graph_file, capsys):
    f = graph_file("c4.graph", hole(4))
    code, out = run(capsys, "recognize", "--class", "cap-even-hole-free", f)
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["kind"] == "4-hole"
    assert doc["witness"]["vertices"] == [1, 2, 3, 4]


def test_recognize_undecided_exit_code(graph_file, capsys):
    f = graph_file("c30.graph", hole(30))
    code, out = run(capsys, "--budget", "20", "recognize",
                    "--class", "cap-even-hole-free", f)
    assert code == 3
    assert json.loads(out)["status"] == "undecided"


def test_recognize_lists_universal_vertices_by_input_id(graph_file, capsys):
    # The 5-hole's universal vertex is atom vertex 5 and input vertex 8.
    g, _ = glue_atoms([path(3), add_universal_clique(hole(5), 1)],
                      [(0, 1, (2,), (0,))])
    f = graph_file("glued.graph", g)
    code, out = run(capsys, "recognize", "--class", "cap-even-hole-free", f)
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert [a["universal"] for a in atoms if not a["complete"]] == [[8]]
    for atom in atoms:
        for u in atom["universal"] or ():
            rest = {v - 1 for v in atom["vertices"]} - {u - 1}
            assert rest <= set(g.adj[u - 1]), (atom, u)


def test_negative_budget_is_a_usage_error(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code = main(["--budget", "-1", "recognize", "--class",
                 "cap-even-hole-free", f])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--budget" in captured.err


def test_non_integer_budget_is_a_usage_error(graph_file, capsys):
    code = main(["--budget", "lots", "mwss", graph_file("c5.graph", hole(5))])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be a nonnegative integer, got 'lots'" in captured.err


def test_color_q2_c5_fails(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code, out = run(capsys, "color", "-q", "2", f)
    assert code == 1
    assert json.loads(out) == {"colorable": False, "q": 2}


def test_color_q3_c5_succeeds(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code, out = run(capsys, "color", "-q", "3", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["colorable"] and len(doc["colors"]) == 5


def test_chromatic_hajos(graph_file, capsys):
    f = graph_file("hajos.graph", hajos())
    code, out = run(capsys, "chromatic", f)
    assert code == 0
    assert json.loads(out)["chi"] == 4


def test_mwss_and_clique_number(graph_file, capsys):
    f = graph_file("g1.graph", blow_up(hole(5), [2] * 5))
    code, out = run(capsys, "mwss", f)
    assert code == 0 and json.loads(out)["weight"] == 2
    code, out = run(capsys, "clique-number", f)
    assert code == 0 and json.loads(out)["value"] == 4


def test_weighted_mwss_from_file(tmp_path, capsys):
    text = "p 3 2\ne 1 2\ne 2 3\nw 2 5\n"
    f = tmp_path / "w.graph"
    f.write_text(text, encoding="utf-8")
    code, out = run(capsys, "mwss", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 5 and doc["vertices"] == [2]


def test_greedy_color(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code, out = run(capsys, "greedy-color", f)
    assert code == 0 and json.loads(out)["count"] == 3


def test_treewidth_command(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code, out = run(capsys, "treewidth", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 2 and doc["exact"] is True


def test_treewidth_heuristic_on_triangles(graph_file, capsys):
    from capfree.graphs import complete
    f = graph_file("k4.graph", complete(4))
    code, out = run(capsys, "treewidth", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 3 and doc["exact"] is False


def test_treewidth_reports_min_fill_beyond_width_5(graph_file, capsys):
    # K6,6 is triangle-free with treewidth 6: min-fill's decomposition
    # comes back at that width, not exact, and the command still answers.
    k66 = Graph(12, [(i, 6 + j) for i in range(6) for j in range(6)])
    f = graph_file("k66.graph", k66)
    code, out = run(capsys, "treewidth", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 6 and doc["exact"] is False
    assert max(map(len, doc["bags"])) == 7


def test_decompose_json_and_dot(graph_file, capsys):
    from capfree.graphs import Graph
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    f = graph_file("tt.graph", g)
    code, out = run(capsys, "decompose", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["leaf_count"] == 2 and doc["cutsets"] == [[2, 3]]
    code, out = run(capsys, "decompose", "--dot", f)
    assert code == 0 and out.startswith("graph decomposition {")


def test_skeleton_command(graph_file, capsys):
    f = graph_file("g1.graph", blow_up(hole(5), [2] * 5))
    code, out = run(capsys, "skeleton", f)
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["1"] == [1, 2]
    assert parse_graph(doc["skeleton"]) == hole(5)


def test_skeleton_command_rejects_cutset(graph_file, capsys):
    from capfree.graphs import path
    f = graph_file("p4.graph", path(4))
    code, out = run(capsys, "skeleton", f)
    assert code == 1
    assert "cutset" in json.loads(out)["error"]


@pytest.mark.parametrize("g,code,doc", [
    (complete(4), 0, {"complete_atom": True}),
    (PRISM, 1, {"reject": {"kind": "triangle", "vertices": [1, 2, 3]}})],
    ids=["K4", "prism"])
def test_skeleton_command_on_atoms_without_a_skeleton(graph_file, capsys,
                                                      g, code, doc):
    assert run(capsys, "skeleton", graph_file("atom.graph", g)) == (
        code, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_oracle_commands(graph_file, capsys):
    f = graph_file("c5.graph", hole(5))
    code, out = run(capsys, "oracle", "odd-signable", f)
    assert code == 0 and json.loads(out)["odd_signable"] is True
    code, out = run(capsys, "oracle", "chordless-cycles", f)
    assert code == 0 and json.loads(out)["count"] == 1
    code, out = run(capsys, "oracle", "chromatic", f)
    assert code == 0 and json.loads(out)["value"] == 3
    code, out = run(capsys, "oracle", "cap", f)
    assert code == 0 and json.loads(out)["witness"] is None
    code, out = run(capsys, "oracle", "clique-cutset", f)
    assert code == 0 and json.loads(out)["cutset"] is None
    code, out = run(capsys, "oracle", "odd-signable",
                    graph_file("k23.graph", K23))
    assert code == 1 and json.loads(out) == {"odd_signable": False}


def test_oracle_chordless_cycles_max_len(graph_file, capsys):
    # The cube's chordless cycles are six 4-holes and four 6-holes.
    f = graph_file("cube.graph", cube())
    code, out = run(capsys, "oracle", "chordless-cycles", "--max-len", "4", f)
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 6
    assert [len(c) for c in doc["cycles"]] == [4] * 6
    assert doc["cycles"][0] == [1, 6, 3, 8]


@pytest.mark.parametrize("kind", ["even-hole", "odd-signable", "chromatic"])
def test_oracle_max_len_is_a_usage_error_beside_other_kinds(
        graph_file, capsys, kind):
    # On C6 the even-hole oracle would return the 6-hole: --max-len 3
    # cannot bound it, so it is refused, not ignored.
    f = graph_file("c6.graph", hole(6))
    code, out = run(capsys, "oracle", kind, "--max-len", "3", f)
    assert code == 2 and out == ""


@pytest.mark.parametrize("value", ["-1", "x"])
def test_oracle_max_len_must_be_nonnegative(graph_file, capsys, value):
    f = graph_file("c6.graph", hole(6))
    code, out = run(capsys, "oracle", "chordless-cycles", "--max-len", value,
                    f)
    assert code == 2 and out == ""


def test_oracle_max_len_zero_lists_no_cycle(graph_file, capsys):
    f = graph_file("c6.graph", hole(6))
    code, out = run(capsys, "oracle", "chordless-cycles", "--max-len", "0", f)
    assert code == 0 and json.loads(out) == {"count": 0, "cycles": []}


def test_oracle_guard_exit_code(graph_file, capsys):
    from capfree.graphs import gnp
    f = graph_file("big.graph", gnp(30, 0.3, 4))
    code, out = run(capsys, "--budget", "10", "oracle", "chromatic", f)
    assert code == 3
    assert json.loads(out)["error"] == "undecided"


def test_generate_with_sidecar(tmp_path, capsys):
    out_path = tmp_path / "inst.graph"
    code, out = run(capsys, "generate", "--seed", "9", "--ears", "1",
                    "--max-blowup", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    g = parse_graph(out_path.read_text(encoding="utf-8"))
    assert g.n == doc["n"] and g.m == doc["m"]
    sidecar = json.loads(
        (tmp_path / "inst.graph.provenance.json").read_text(encoding="utf-8"))
    assert sidecar["clique_number"] == doc["clique_number"]


def test_generate_stdout_mode(capsys):
    code, out = run(capsys, "generate", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    parse_graph(doc["graph"])
    assert doc["provenance"]["params"]["seed"] == 3


def test_identical_invocations_are_byte_identical(graph_file, capsys):
    f = graph_file("g1.graph", blow_up(hole(5), [2] * 5))
    _, first = run(capsys, "chromatic", f)
    _, second = run(capsys, "chromatic", f)
    assert first == second


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("p 2 1\ne 1 1\n", encoding="utf-8")
    assert main([str("mwss"), str(f)]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["mwss", "/nonexistent/g.graph"]) == 2


def test_usage_error_exit_code(graph_file, capsys):
    assert main(["color", "-q", "not-a-number", "x"]) == 2
    # -q 0 parses, and the library's ValueError is a usage error too.
    assert main(["color", "-q", "0", graph_file("c5.graph", hole(5))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\nerror: q must be at least 1\n")


def test_graph_read_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(hole(5))))
    code, out = run(capsys, "mwss", "-")
    assert code == 0 and json.loads(out)["weight"] == 2


def test_internal_failure_exit_code(graph_file, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("this cannot happen")
    monkeypatch.setattr(cli, "cmd_mwss", boom)
    code, out = run(capsys, "mwss", graph_file("c5.graph", hole(5)))
    assert code == 4
    assert json.loads(out) == {"error": "internal",
                               "detail": "RuntimeError: this cannot happen"}


def test_failed_recheck_exit_code_under_python_O(graph_file):
    script = (
        "import sys\n"
        "from capfree import cli, solvers\n"
        "solvers._stable_dp = lambda g, nd, allowed, w, budget: (\n"
        "    0, list(g.vertices()))\n"
        "sys.exit(cli.main(['mwss', sys.argv[1]]))\n")
    f = graph_file("g1.graph", blow_up(hole(5), [2] * 5))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script, f],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 4
    doc = json.loads(done.stdout)
    assert sorted(doc) == ["detail", "error"]
    assert doc["error"] == "internal"
    assert doc["detail"].startswith("CertificateError: ")


def test_selftest_command(capsys):
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 13
    assert captured.err.count("[pass]") == 13
