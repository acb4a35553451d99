import json
import os
import subprocess
import sys
from pathlib import Path

import mostar
import pytest
from mostar import (FamilySpec, MonomerHandle, PolymerSpec, complete_graph,
                    generate, index_report, parse_edge_list, parse_graph_json,
                    spec_to_dict)
from mostar.cli import main

K2_JSON = {"n": 2, "edges": [[0, 1]]}


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_dict(spec)))
    return str(path)


class TestGen:
    def test_triangular_edgelist(self, tmp_path, capsys):
        out = tmp_path / "t2.txt"
        assert main(["gen", "--family", "triangular", "--n", "2",
                     "--out", str(out)]) == 0
        g = parse_edge_list(out.read_text())
        assert (g.n, g.m) == (5, 6)
        err = capsys.readouterr().err
        assert "landmarks" in err and "n=5" in err

    def test_clique_flower_json(self, capsys):
        assert main(["gen", "--family", "clique-flower", "--m", "5",
                     "--inner", "4", "--format", "json"]) == 0
        g = parse_graph_json(capsys.readouterr().out)
        assert (g.n, g.m) == (20, 40)

    def test_triangulane(self, capsys):
        assert main(["gen", "--family", "triangulane", "--n", "1"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert (g.n, g.m) == (9, 12)

    def test_invalid_params_exit_2(self):
        assert main(["gen", "--family", "triangular", "--n", "0"]) == 2


class TestCompute:
    @pytest.fixture
    def t2_file(self, tmp_path):
        path = tmp_path / "t2.txt"
        main(["gen", "--family", "triangular", "--n", "2", "--out", str(path)])
        return str(path)

    def test_text_all(self, t2_file, capsys):
        assert main(["compute", t2_file, "--index", "all"]) == 0
        out = capsys.readouterr().out
        assert "mostar = 8" in out
        assert "edge-mostar = 12" in out
        assert "wiener = 14" in out

    def test_json_and_csv_carry_identical_numbers(self, t2_file, capsys):
        assert main(["compute", t2_file, "--index", "all", "--per-edge",
                     "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        results = record["results"]
        assert main(["compute", t2_file, "--index", "all", "--per-edge",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,u,v,vertex_diff,edge_diff,value"
        totals = {row.split(",")[0]: int(row.split(",")[5])
                  for row in lines[1:4]}
        assert totals == {"mostar": results["mostar"],
                          "edge-mostar": results["edge-mostar"],
                          "wiener": results["wiener"]}
        edge_rows = [row.split(",") for row in lines[4:]]
        assert len(edge_rows) == len(results["per_edge"]) == 6
        for row, rec in zip(edge_rows, results["per_edge"]):
            assert [int(row[1]), int(row[2])] == [rec["u"], rec["v"]]
            assert [int(row[3]), int(row[4])] == [rec["vertex_diff"], rec["edge_diff"]]

    def test_single_index(self, t2_file, capsys):
        assert main(["compute", t2_file, "--index", "mostar"]) == 0
        out = capsys.readouterr().out
        assert "mostar = 8" in out and "wiener" not in out

    def test_disconnected_exit_3(self, tmp_path):
        path = tmp_path / "dis.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        assert main(["compute", str(path)]) == 3

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a graph\n")
        assert main(["compute", str(path)]) == 2
        assert main(["compute", str(tmp_path / "missing.txt")]) == 2

    # int() reads each of these as a graph that was not written (exit 0 or 3)
    @pytest.mark.parametrize("text", ["11 1\n0 1_0\n", "2 1\n0 \u0661\n",
                                      "2 1\n\u0660 1\n", "1_0 0\n",
                                      "\u0663 0\n", "2 \u0661\n0 1\n"])
    def test_non_decimal_edge_list_token_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["compute", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected a decimal integer, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edges", [[[0]], [[0, 1, 2]], [0], [None],
                                       [[0, {}]], [[0, 1.5]]])
    def test_malformed_json_edge_exit_2(self, tmp_path, capsys, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "edges": edges}))
        assert main(["compute", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_triangular_sweep(self, capsys):
        assert main(["verify", "--families", "triangular",
                     "--from", "1", "--to", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "family,n,index,formula,oracle,agree"
        assert len(lines) == 13
        assert all(line.endswith("true") for line in lines[1:])

    def test_disagreement_exits_1_but_emits_rows(self, capsys):
        assert main(["verify", "--families", "hex-meta",
                     "--from", "1", "--to", "4"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 9
        disagreeing = [line for line in lines if line.endswith("false")]
        assert disagreeing == [
            "hex-meta,3,edge-mostar,144,168,false",
            "hex-meta,4,edge-mostar,288,336,false"]
        assert "disagree" in captured.err

    def test_all_at_n1(self, capsys):
        assert main(["verify", "--families", "all", "--from", "1", "--to", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # 6 chains x 2 indices + triangulane mostar + 25 clique flowers x 2
        assert len(lines) == 1 + 12 + 1 + 50

    def test_clique_flower_ranges(self, capsys):
        assert main(["verify", "--families", "clique-flower",
                     "--m-range", "1..4", "--inner-range", "1..4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 33
        assert "clique-flower,3x4,mostar," in "\n".join(lines)

    def test_size_cap(self):
        assert main(["verify", "--families", "triangulane",
                     "--from", "12", "--to", "12"]) == 2

    def test_bad_range(self):
        assert main(["verify", "--families", "triangular",
                     "--from", "3", "--to", "2"]) == 2
        assert main(["verify", "--families", "nosuch"]) == 2

    @pytest.mark.parametrize("flag", ["--m-range", "--inner-range"])
    @pytest.mark.parametrize("text", ["a..3", "1..b", "", ".."])
    def test_malformed_clique_range_exit_2(self, capsys, flag, text):
        assert main(["verify", "--families", "clique-flower", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_text_format(self, capsys):
        assert main(["verify", "--families", "triangular",
                     "--from", "2", "--to", "2", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "formula=8 oracle=8 ok" in out

    def test_csv_and_json_agree(self, capsys):
        args = ["--families", "square-ortho", "--from", "1", "--to", "5"]
        assert main(["verify", *args, "--format", "csv"]) == 0
        csv_lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert main(["verify", *args, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        rows = record["results"]
        assert len(rows) == len(csv_lines)
        for line, row in zip(csv_lines, rows):
            fam, n, index, formula, oracle, agree = line.split(",")
            assert (fam, int(n), index) == (row["family"], row["n"], row["index"])
            assert (int(formula), int(oracle)) == (row["formula"], row["oracle"])
            assert (agree == "true") == row["agree"]


class TestBounds:
    def test_tight_link_upper(self, tmp_path, capsys):
        spec = PolymerSpec("link", (MonomerHandle(complete_graph(2), 0, 1),) * 2)
        path = write_spec(tmp_path, "link22.json", spec)
        assert main(["bounds", path, "--which", "link-upper",
                     "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["mostar"] == {
            "actual": 4, "bound": 4, "kind": "upper", "strict": False,
            "slack": 0, "holds": True}

    def test_both_indices_text(self, tmp_path, capsys):
        spec = PolymerSpec("chain", (MonomerHandle(complete_graph(3), 0, 1),) * 2)
        path = write_spec(tmp_path, "chain33.json", spec)
        assert main(["bounds", path, "--which", "superadditive",
                     "--index", "both"]) == 0
        out = capsys.readouterr().out
        assert "actual=8" in out and "actual=12" in out and "holds" in out

    def test_violated_bound_exits_1(self, tmp_path, capsys):
        # circuit of three single vertices: superadditivity is not strict
        spec = PolymerSpec("circuit", (MonomerHandle(complete_graph(1), 0),) * 3)
        path = write_spec(tmp_path, "c3.json", spec)
        assert main(["bounds", path, "--which", "superadditive"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_incompatible_exit_2(self, tmp_path):
        spec = PolymerSpec("chain", (MonomerHandle(complete_graph(3), 0, 1),) * 2)
        path = write_spec(tmp_path, "chain.json", spec)
        assert main(["bounds", path, "--which", "link-upper"]) == 2

    def test_bad_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bounds", str(path), "--which", "link-upper"]) == 2


class TestCompose:
    def test_link_writes_graph_and_map(self, tmp_path):
        spec = PolymerSpec("link", (MonomerHandle(complete_graph(2), 0, 1),) * 2)
        spec_path = write_spec(tmp_path, "p4.json", spec)
        out = tmp_path / "p4.txt"
        assert main(["compose", spec_path, "--out", str(out)]) == 0
        g = parse_edge_list(out.read_text())
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        vmap = json.loads((tmp_path / "p4.txt.map.json").read_text())
        assert vmap["vertex_map"] == [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 3]]

    def test_bouquet_star(self, tmp_path, capsys):
        spec = PolymerSpec("bouquet", (MonomerHandle(complete_graph(2), 0, 1),) * 3)
        spec_path = write_spec(tmp_path, "star.json", spec)
        assert main(["compose", spec_path]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_tree_of_triangles(self, tmp_path, capsys):
        spec = PolymerSpec(
            "tree", (MonomerHandle(complete_graph(3), 0, 1),) * 3,
            ((0, 1, 1, 0), (1, 1, 2, 0)))
        spec_path = write_spec(tmp_path, "t3.json", spec)
        assert main(["compose", spec_path, "--format", "json"]) == 0
        g = parse_graph_json(capsys.readouterr().out)
        assert (g.n, g.m) == (7, 9)

    def test_invalid_spec_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "circuit", "monomers": [
            {"graph": K2_JSON, "x": 0, "y": 1}]}))
        assert main(["compose", str(path)]) == 2

    @pytest.mark.parametrize("edges", [[[0, {}]], [[0, 1.5]]])
    def test_non_integer_monomer_vertex_exit_2(self, tmp_path, capsys, edges):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "link", "monomers": [
            {"graph": {"n": 2, "edges": edges}, "x": 0}]}))
        assert main(["compose", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


#: specs whose handles or tree edges are not JSON integers; ``int()`` would
#: read each as a different, valid polymer
NON_INTEGER_SPECS = {
    "y-float": {"kind": "link", "monomers": [
        {"graph": K2_JSON, "x": 0, "y": 1.9}, {"graph": K2_JSON, "x": 0, "y": 1}]},
    "x-bool": {"kind": "link", "monomers": [
        {"graph": K2_JSON, "x": True, "y": 0}, {"graph": K2_JSON, "x": 0, "y": 1}]},
    "y-string": {"kind": "chain", "monomers": [
        {"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "x": 0, "y": "2"},
        {"graph": K2_JSON, "x": 0, "y": 1}]},
    "tree-edge-float": {"kind": "tree", "monomers": [
        {"graph": K2_JSON, "x": 0}, {"graph": K2_JSON, "x": 0}],
        "tree_edges": [[0, 1.7, 1, 0]]},
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_SPECS))
@pytest.mark.parametrize("argv", [["compose"], ["bounds", "--which", "superadditive"]],
                         ids=["compose", "bounds"])
def test_non_integer_spec_vertex_exit_2(tmp_path, capsys, name, argv):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NON_INTEGER_SPECS[name]))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: polymer spec ")
    assert captured.err.count("\n") == 1 and "must be an integer" in captured.err


#: (spec, part of the message) for tree edges of the wrong arity or kind
BAD_TREE_EDGE_SPECS = {
    "three-entries": ({"kind": "tree", "monomers": [{"graph": K2_JSON, "x": 0}] * 2,
                       "tree_edges": [[0, 1, 1]]}, "must have 4 entries"),
    "five-entries": ({"kind": "tree", "monomers": [{"graph": K2_JSON, "x": 0}] * 2,
                      "tree_edges": [[0, 1, 1, 0, 7]]}, "must have 4 entries"),
    "link-with-tree-edges": ({"kind": "link", "monomers": [{"graph": K2_JSON, "x": 0}] * 2,
                              "tree_edges": [[0, 1, 1, 0]]}, "apply only to kind 'tree'"),
}


@pytest.mark.parametrize("name", sorted(BAD_TREE_EDGE_SPECS))
@pytest.mark.parametrize("argv", [["compose"], ["bounds", "--which", "superadditive"]],
                         ids=["compose", "bounds"])
def test_bad_tree_edges_exit_2(tmp_path, capsys, name, argv):
    spec, message = BAD_TREE_EDGE_SPECS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree") and captured.err.count("\n") == 1
    assert message in captured.err


LONG = "x" * 1_000_000


@pytest.mark.parametrize("argv,doc", [
    (["compute"], {"n": 3, "edges": [[0, LONG]]}),
    (["compose"], {"kind": "link", "monomers": [{"graph": K2_JSON, "x": LONG}] * 2}),
], ids=["compute", "compose"])
def test_long_bad_value_gives_one_short_error_line(tmp_path, capsys, argv, doc):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be an integer, got 'xxx" in captured.err
    assert captured.err.endswith("...\n") and len(captured.err) < 200


DEEP = "[" * 100_000


@pytest.mark.parametrize("argv,text", [
    (["compute"], '{"n": 3, "edges": ' + DEEP),
    (["compose"], '{"kind": "link", "monomers": ' + DEEP),
    (["bounds", "--which", "superadditive"], '{"kind": "link", "monomers": ' + DEEP),
], ids=["compute", "compose", "bounds"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestRoundTrip:
    def sweep_specs(self):
        for family in ("triangular", "square-para", "square-ortho",
                       "hex-para", "hex-meta", "hex-ortho"):
            for n in range(1, 13):
                yield FamilySpec(family, n=n)
        for n in range(1, 6):
            yield FamilySpec("triangulane", n=n)
        for m in range(1, 6):
            for inner in range(1, 6):
                yield FamilySpec("clique-flower", m=m, inner=inner)

    def test_gen_then_compute_matches_library(self, tmp_path, capsys):
        for spec in self.sweep_specs():
            args = ["gen", "--family", spec.family, "--format", "json"]
            if spec.family == "clique-flower":
                args += ["--m", str(spec.m), "--inner", str(spec.inner)]
            else:
                args += ["--n", str(spec.n)]
            assert main(args) == 0
            path = tmp_path / "g.json"
            path.write_text(capsys.readouterr().out)
            assert main(["compute", str(path), "--index", "all",
                         "--format", "json"]) == 0
            record = json.loads(capsys.readouterr().out)
            report = index_report(generate(spec).graph)
            assert record["results"]["mostar"] == report.mostar, spec
            assert record["results"]["edge-mostar"] == report.edge_mostar, spec
            assert record["results"]["wiener"] == report.wiener, spec


def test_python_dash_m_runs_the_cli():
    src = str(Path(mostar.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mostar", "verify", "--families", "triangular",
         "--from", "1", "--to", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("family,n,index")


def test_console_script_wiring():
    proc = subprocess.run(
        ["mostar", "verify", "--families", "triangular", "--from", "1", "--to", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("family,n,index")
