import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mostar
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mostar import (BOUND_KINDS, FAMILY_NAMES, KINDS, FamilySpec, MonomerHandle,
                    PolymerSpec, complete_graph, cycle_graph, dump_graph, generate,
                    index_report, parse_graph, spec_to_dict)
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
        g = parse_graph(out.read_text())
        assert (g.n, g.m) == (5, 6)
        err = capsys.readouterr().err
        assert "landmarks" in err and "n=5" in err

    def test_clique_flower_json(self, capsys):
        assert main(["gen", "--family", "clique-flower", "--m", "5",
                     "--inner", "4", "--format", "json"]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert (g.n, g.m) == (20, 40)

    def test_triangulane(self, capsys):
        assert main(["gen", "--family", "triangulane", "--n", "1"]) == 0
        g = parse_graph(capsys.readouterr().out)
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

    def test_size_cap_stops_at_the_first_oversized_instance(self, capsys):
        tracemalloc.start()
        try:
            assert main(["verify", "--families", "hex-para", "--to", "1000000000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "error: hex-para at 129 has vertex-edge product 500004 > --max-size 500000\n")
        assert peak < 1 << 20  # no cell past the first oversized one is made

    @pytest.mark.parametrize("args,message", [
        (["--families", "hex-para,bogus"], "unknown family 'bogus'"),
        (["--families", "hex-para,clique-flower", "--m-range", "3..1"],
         "empty range '3..1': lo must not exceed hi"),
        (["--families", "hex-para,clique-flower", "--m-range", "0..2"],
         "family parameters must be >= 1"),
        (["--families", "hex-para", "--from", "0"], "--from must be >= 1"),
        (["--families", "hex-para,triangulane-aux"],
         "no closed forms to verify for 'triangulane-aux'")])
    def test_bad_names_and_ranges_come_before_the_size_check(self, capsys, args, message):
        # hex-para is oversized from n=129 on, before the later family in sweep order
        assert main(["verify", *args, "--to", "200"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_range(self):
        assert main(["verify", "--families", "triangular",
                     "--from", "3", "--to", "2"]) == 2
        assert main(["verify", "--families", "nosuch"]) == 2

    @pytest.mark.parametrize("flag", ["--m-range", "--inner-range"])
    @pytest.mark.parametrize("text", ["a..3", "1..b", "", "..", "3..1", "2.."])
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
        g = parse_graph(out.read_text())
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        vmap = json.loads((tmp_path / "p4.txt.map.json").read_text())
        assert vmap["vertex_map"] == [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 3]]

    def test_bouquet_star(self, tmp_path, capsys):
        spec = PolymerSpec("bouquet", (MonomerHandle(complete_graph(2), 0, 1),) * 3)
        spec_path = write_spec(tmp_path, "star.json", spec)
        assert main(["compose", spec_path]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.edges == ((0, 1), (0, 2), (0, 3))

    def test_tree_of_triangles(self, tmp_path, capsys):
        spec = PolymerSpec(
            "tree", (MonomerHandle(complete_graph(3), 0, 1),) * 3,
            ((0, 1, 1, 0), (1, 1, 2, 0)))
        spec_path = write_spec(tmp_path, "t3.json", spec)
        assert main(["compose", spec_path, "--format", "json"]) == 0
        g = parse_graph(capsys.readouterr().out)
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


@pytest.mark.parametrize("field", ["graph", "x"])
@pytest.mark.parametrize("argv", [["compose"], ["bounds", "--which", "superadditive"]],
                         ids=["compose", "bounds"])
def test_monomer_missing_field_exit_2(tmp_path, capsys, field, argv):
    second = {key: value for key, value in {"graph": K2_JSON, "x": 0}.items()
              if key != field}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "link", "monomers": [
        {"graph": K2_JSON, "x": 0, "y": 1}, second]}))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: polymer spec monomer 1 has no '{field}'\n"


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


#: (kind, value) of a ``tree_edges`` field that is not a JSON array of arrays
BAD_TREE_EDGES_FIELDS = {
    "int": ("tree", 5), "null": ("tree", None), "object": ("tree", {"a": 1}),
    "string": ("tree", "abcd"), "array-of-objects": ("tree", [{"a": 1, "b": 2, "c": 3, "d": 4}]),
    "link-string": ("link", "abc"),
}


@pytest.mark.parametrize("name", sorted(BAD_TREE_EDGES_FIELDS))
@pytest.mark.parametrize("argv", [["compose"], ["bounds", "--which", "superadditive"]],
                         ids=["compose", "bounds"])
def test_tree_edges_not_an_array_of_arrays_exit_2(tmp_path, capsys, name, argv):
    """Python's "'int' object is not iterable" used to reach the user, and a
    string or object was read entry by entry as if it were a tree edge."""
    kind, value = BAD_TREE_EDGES_FIELDS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, "monomers": [{"graph": K2_JSON, "x": 0}] * 2,
                                "tree_edges": value}))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polymer spec 'tree_edges' must be an array of arrays\n"


def _long_kind_spec() -> str:
    return json.dumps({"kind": "k" * 200_000, "monomers": [{"graph": K2_JSON, "x": 0}]})


#: (argv, file name, text) whose error line quotes a long input value
LONG_QUOTED_INPUTS = {
    "compose-kind": (["compose"], "spec.json", _long_kind_spec()),
    "bounds-kind": (["bounds", "--which", "superadditive"], "spec.json", _long_kind_spec()),
    "tree-edge": (["compose"], "spec.json", json.dumps({
        "kind": "tree", "monomers": [{"graph": K2_JSON, "x": 0}] * 2,
        "tree_edges": [[0] * 50_007]})),
    "edge-list-header": (["compute"], "g.txt", "3 " + "1 " * 50_000 + "\n0 1\n"),
    "edge-list-line": (["compute"], "g.txt", "3 1\n0 " + "1 " * 50_000 + "\n"),
    "edge-list-token": (["compute"], "g.txt", "3 1\n0 1" + "x" * 100_000 + "\n"),
    "vertex-id": (["compute"], "g.txt", "3 1\n0 1" + "0" * 4_000 + "\n"),
}


@pytest.mark.parametrize("name", sorted(LONG_QUOTED_INPUTS))
def test_quoted_input_value_is_cut_short(tmp_path, capsys, name):
    argv, file_name, text = LONG_QUOTED_INPUTS[name]
    path = tmp_path / file_name
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "..." in captured.err and len(captured.err) < 200


@pytest.mark.parametrize("argv,shown", [
    (["verify", "--from", "x" * 100_000], "invalid int value: 'xxx"),
    (["gen", "--family", "y" * 100_000], "invalid choice: 'yyy"),
    (["gen", "--family", "triangular", "z" * 100_000], "unrecognized arguments: zzz"),
    (["gen", "--family", "it's" * 25_000], 'invalid choice: "it\'sit\'s'),
], ids=["int", "choice", "unrecognized", "double-quoted"])
def test_usage_error_cuts_the_argv_value(capsys, argv, shown):
    """argparse used to quote the value whole: 100,276 bytes of stderr for
    the first case."""
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    captured = capsys.readouterr()
    error = captured.err.splitlines()[-1]
    assert captured.out == "" and shown in error and len(captured.err) < 700
    assert error.count("...") == 1 and len(error) < 300


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


HUGE = 10 ** 23  # a vertex count beyond int64
HUGE_GRAPH = {"n": HUGE, "edges": [[0, HUGE - 1]]}


@pytest.mark.parametrize("argv,name,text", [
    (["compute"], "g.json", json.dumps(HUGE_GRAPH)),
    (["compute"], "g.txt", f"{HUGE} 1\n0 {HUGE - 1}\n"),
    (["compose"], "spec.json", json.dumps({"kind": "chain", "monomers": [
        {"graph": HUGE_GRAPH, "x": 0}]})),
], ids=["compute-json", "compute-text", "compose"])
def test_vertex_count_beyond_int64_exit_2(tmp_path, capsys, argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([argv[0], str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex count does not fit in 64 bits (n >= 2**63)\n"


def test_sparse_monomer_is_rejected_before_allocating(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "chain", "monomers": [
        {"graph": {"n": 10 ** 12, "edges": [[0, 1]]}, "x": 0, "y": 1}]}))
    tracemalloc.start()
    try:
        assert main(["compose", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: monomer graph is not connected\n"
    assert peak < 1 << 20



@pytest.mark.parametrize("argv", [
    ["gen", "--family", "triangular", "--out", "{missing}/x.txt"],
    ["compose", "{spec}", "--out", "{missing}/x.txt"],
    ["bounds", "{missing}/spec.json", "--which", "superadditive"],
    ["compose", "{missing}/spec.json"],
    ["compute", "{missing}/g.txt"],
], ids=["gen-out", "compose-out", "bounds-spec", "compose-spec", "compute-input"])
def test_path_that_cannot_be_read_or_written_exit_2(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, "spec.json", PolymerSpec(
        "link", (MonomerHandle(complete_graph(2), 0, 1),) * 2))
    argv = [arg.format(spec=spec, missing=tmp_path / "missing") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


#: small integers, so no generated input can ask for a large graph
small_ints = st.integers(-3, 30)
#: any shallow JSON value, for fields that may hold the wrong kind
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.sampled_from([1.5, -0.0])
    | st.text("0123456789 ab{[", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "edges", "x", "y", "graph"]), inner, max_size=3),
    max_leaves=6)


def _documents(fields: dict):
    """JSON objects with these fields, each of any JSON kind and sometimes dropped."""
    return st.fixed_dictionaries({}, optional={k: v | json_values for k, v in fields.items()})


@st.composite
def edge_pairs(draw, odds: int = 4):
    """``(n, edges)``: a connected graph (a path plus chords), except one time
    in ``odds`` a graph whose pairs may loop, repeat, leave it disconnected
    or fall out of range."""
    if draw(st.integers(1, odds)) > 1:
        n = draw(st.integers(1, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3))
        chords = sorted({(min(p), max(p)) for p in pairs if abs(p[0] - p[1]) > 1})
        return n, [[i, i + 1] for i in range(n - 1)] + [list(c) for c in chords]
    n = draw(st.integers(-1, 10))
    ids = st.integers(-1, max(n, 0))
    return n, draw(st.lists(st.lists(ids, min_size=2, max_size=2), max_size=6))


@st.composite
def edge_list_texts(draw):
    n, edges = draw(edge_pairs())
    lines = [[str(n), str(len(edges) + draw(st.sampled_from([0, 0, 1, -1])))]]
    lines += [[str(u), str(v)] for u, v in edges]
    tokens = small_ints.map(str) | st.sampled_from(["x", "1.5", "#", "0x1", "+2", "\u0662"])
    for _ in range(draw(st.integers(0, 2))):  # a line of junk in place of a good one
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.lists(tokens, max_size=3))
    return "\n".join(" ".join(line) for line in lines) + "\n"


graph_docs = edge_pairs().map(lambda pair: {"n": pair[0], "edges": pair[1]}) | _documents({
    "n": small_ints, "edges": st.lists(st.lists(small_ints, max_size=3), max_size=6)})


@st.composite
def polymer_docs(draw):
    """Polymer spec documents of at most 5 small monomers, mostly well formed."""
    kind = draw(st.sampled_from(KINDS))
    monomers = []
    for _ in range(draw(st.integers(1, 5))):
        n, edges = draw(edge_pairs(odds=16))
        handles = st.integers(0, n - 1) if n > 0 and draw(st.integers(0, 7)) else small_ints
        monomers.append({"graph": {"n": n, "edges": edges}, "x": draw(handles),
                         **({"y": draw(handles)} if draw(st.booleans()) else {})})
    doc = {"kind": kind, "monomers": monomers}
    if kind == "tree":
        doc["tree_edges"] = [[draw(st.integers(0, i)), draw(st.integers(-1, 2)), i + 1,
                              draw(st.integers(-1, 2))] for i in range(len(monomers) - 1)]
    return doc


spec_docs = polymer_docs() | _documents({
    "kind": st.sampled_from(KINDS),
    "monomers": st.lists(_documents({"graph": graph_docs, "x": small_ints,
                                     "y": small_ints}), max_size=5),
    "tree_edges": st.lists(st.lists(small_ints, min_size=3, max_size=5), max_size=5),
})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_fuzz_case(path: Path, text: str, argv: list[str]) -> None:
    """``main`` on ``text`` written to ``path`` keeps the exit-code contract:
    no exception escapes, and a bad-input or disconnected exit prints one
    ``error:`` line and nothing else on stderr."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert "error: " not in err.getvalue()


compute_argvs = st.sampled_from([["compute"], ["compute", "--per-edge", "--format", "json"]])


@settings(deadline=None, max_examples=150)
@given(edge_list_texts(), compute_argvs)
def test_fuzz_compute_edge_list(fuzz_dir, text, argv):
    _run_fuzz_case(fuzz_dir / "g.txt", text, argv)


@settings(deadline=None, max_examples=150)
@given(graph_docs, compute_argvs)
def test_fuzz_compute_graph_json(fuzz_dir, doc, argv):
    _run_fuzz_case(fuzz_dir / "g.json", json.dumps(doc), argv)


@settings(deadline=None, max_examples=200)
@given(spec_docs, st.sampled_from(
    [["compose"], ["compose", "--format", "json"]]
    + [["bounds", "--which", which, "--index", "both"] for which in BOUND_KINDS]))
def test_fuzz_compose_and_bounds(fuzz_dir, doc, argv):
    _run_fuzz_case(fuzz_dir / "spec.json", json.dumps(doc), argv)


def _run_argv_case(argv: list[str]) -> None:
    """``main(argv)``, usage errors included, exits 0, 1 or 2 with at most one
    ``error:`` line on stderr and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2)
    assert err.getvalue().count("error:") == (code == 2)
    assert "Traceback" not in err.getvalue()


def mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 3 else good)


def int_args(top: int):
    """Mostly an integer argument in ``1..top``, else 0, -1 or not an integer."""
    return mostly(st.integers(1, top).map(str), st.sampled_from(["0", "-1", "x", "1.5", ""]))


bad_names = st.sampled_from(["bogus", "", "Hex-para", "hex-para "])


@st.composite
def gen_argvs(draw):
    """``gen`` of any family name, at most 50 polygons or depth 6 (about
    400 vertices at most)."""
    family = draw(mostly(st.sampled_from(FAMILY_NAMES), bad_names))
    argv = ["gen", "--family", family,
            "--n", draw(int_args(6 if family.startswith("triangulane") else 50))]
    if family == "clique-flower" or draw(st.booleans()):
        argv += ["--m", draw(int_args(8)), "--inner", draw(int_args(8))]
    return argv + ["--format", draw(mostly(st.sampled_from(["edgelist", "json"]),
                                           st.just("csv")))]


clique_ranges = mostly(
    st.lists(st.integers(1, 8), min_size=2, max_size=2).map(lambda p: "{}..{}".format(*sorted(p))),
    st.sampled_from(["3..1", "0..2", "a..3", "..", "", "2.."]))


@st.composite
def verify_argvs(draw):
    """``verify`` over family lists with bad names, ranges and ``--max-size``
    values: to n = 50 on the chains, depth 6 where a triangulane is swept,
    and clique flowers to 8 x 8, so no graph has more than about 10^4
    vertices whatever ``--max-size`` allows."""
    names = draw(st.lists(mostly(st.sampled_from(FAMILY_NAMES), bad_names),
                          min_size=1, max_size=3))
    families = draw(st.sampled_from(["all", ",".join(names)]))
    top = 6 if families == "all" or "triangulane" in names else 50
    n_from, n_to = sorted(draw(st.lists(st.integers(1, top), min_size=2, max_size=2)))
    n_from, n_to = draw(mostly(st.just((str(n_from), str(n_to))), st.sampled_from(
        [(str(n_to + 1), str(n_to)), ("0", str(n_to)), ("x", str(n_to)), (str(n_from), "")])))
    return ["verify", "--families", families, "--from", n_from, "--to", n_to,
            "--m-range", draw(clique_ranges), "--inner-range", draw(clique_ranges),
            "--max-size", draw(mostly(st.sampled_from(["10000", "500000", "10000000"]),
                                      st.sampled_from(["-1", "0", "50", "x"]))),
            "--format", draw(st.sampled_from(["csv", "json", "text"]))]


@settings(deadline=None, max_examples=100)
@given(gen_argvs())
def test_fuzz_gen(argv):
    _run_argv_case(argv)


@settings(deadline=None, max_examples=60)
@given(verify_argvs())
def test_fuzz_verify(argv):
    _run_argv_case(argv)


#: whether scipy (or its csgraph) is loaded after each step, printed by a
#: fresh interpreter
SCIPY_PROBE = """
import sys
import mostar.cli
from mostar import (FamilySpec, MonomerHandle, PolymerSpec, check_bounds, complete_graph,
                    compose, cycle_graph, generate, index_report, index_reports,
                    is_connected)
loaded = ["scipy" in sys.modules]
compose(PolymerSpec("bouquet", (MonomerHandle(cycle_graph(5), 0),) * 3))
loaded.append("scipy" in sys.modules)
# composes inside; every block of monomers and composite has at most 48 vertices
check_bounds(PolymerSpec("link", (MonomerHandle(cycle_graph(40), 0, 20),) * 3), "superadditive")
loaded.append("scipy" in sys.modules)
is_connected(generate(FamilySpec("hex-meta", n=50)).graph)
loaded.append("scipy" in sys.modules)
index_report(generate(FamilySpec("hex-meta", n=50)).graph)  # blocks of 6 vertices
loaded.append("scipy" in sys.modules)
# one batch of chains whose blocks all have at most 48 vertices
list(index_reports(generate(FamilySpec("hex-meta", n=n)).graph for n in range(1, 31)))
loaded.append("scipy" in sys.modules)
index_report(complete_graph(60))  # one shallow block of 60 vertices: the level pass
loaded += ["scipy.sparse" in sys.modules, "scipy.sparse.csgraph" in sys.modules]
index_report(cycle_graph(60))  # one deep block of 60 vertices streams BFS rows
loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_scipy_is_loaded_only_by_the_bfs_pass():
    src = str(Path(mostar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False, False, False, False, False, False, True]\n"


def dense_graph(n, m, seed):
    """A seeded Hamiltonian n-cycle plus random chords up to m edges: one
    block of small diameter, as in the benchmark's dense workload."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    edges = {tuple(sorted((order[i], order[i - 1]))) for i in range(n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return {"n": n, "edges": sorted(edges)}


@pytest.mark.parametrize("graph,loads", [
    (dump_graph(complete_graph(60), "json"), False),
    (json.dumps(dense_graph(200, 1200, 7)), False),
    (dump_graph(cycle_graph(200), "json"), True)], ids=["K60", "dense-200", "C200"])
def test_compute_imports_scipy_only_for_the_rows_pass(tmp_path, graph, loads):
    """``python -m mostar compute`` on one shallow block of more than
    ``_FLOYD_MAX`` vertices runs the bit-parallel level pass and imports no
    scipy module; C200, too deep for it, streams scipy's BFS rows.  The
    interpreter's import log (``-X importtime``) lists every module."""
    path = tmp_path / "g.json"
    path.write_text(graph)
    src = str(Path(mostar.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mostar", "compute",
                           str(path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "wiener" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "mostar.indices" in imported
    assert any(name.split(".")[0] == "scipy" for name in imported) == loads


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
