"""Golden set: exact exit code, stdout and stderr of about 150 CLI calls.

Every call runs ``mostar.cli.main(argv)`` in process on small inputs: each
graph family in both output formats, ``compute`` in every format and index
selection on family graphs, K1, K2, a disconnected and malformed inputs,
``verify`` over all families, every bound on a compatible spec (and
incompatible ones), and ``compose`` of every construction kind.  Input
files are written to a temporary directory under relative names, so the
recorded output does not depend on where the suite runs.

The expected outputs live in ``golden_cli.json``.  A change that means to
alter CLI output re-records them with ``python tests/test_golden.py`` and
shows the difference in review; any other change must leave every call
byte-identical.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mostar import FamilySpec, emit_edge_list, emit_graph_json, generate
from mostar.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

TRI = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
P3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
K1 = {"n": 1, "edges": []}


def _mon(graph, x, y=None):
    return {"graph": graph, "x": x, "y": y}


SPECS = {
    "link3": {"kind": "link", "monomers": [_mon(TRI, 0, 1), _mon(C4, 0, 2), _mon(P3, 0, 2)]},
    "link2": {"kind": "link", "monomers": [_mon(TRI, 0, 1), _mon(P3, 0, 2)]},
    "chain3": {"kind": "chain", "monomers": [_mon(TRI, 0, 1), _mon(C4, 0, 2), _mon(P3, 0, 2)]},
    "bouquet3": {"kind": "bouquet", "monomers": [_mon(TRI, 0), _mon(C4, 0), _mon(P3, 1)]},
    "circuit4": {"kind": "circuit",
                 "monomers": [_mon(TRI, 0), _mon(C4, 0), _mon(P3, 0), _mon(K1, 0)]},
    "circuit3": {"kind": "circuit", "monomers": [_mon(TRI, 0), _mon(P3, 1), _mon(C4, 0)]},
    "tree3": {"kind": "tree", "monomers": [_mon(TRI, 0), _mon(C4, 0), _mon(P3, 0)],
              "tree_edges": [[0, 1, 1, 0], [0, 2, 2, 1]]},
    "bad-circuit2": {"kind": "circuit", "monomers": [_mon(TRI, 0), _mon(P3, 0)]},
    "bad-disconnected": {"kind": "link",
                         "monomers": [_mon(TRI, 0), _mon({"n": 2, "edges": []}, 0)]},
}

#: bound -> a spec it applies to
BOUND_SPECS = {"link-upper": "link3", "chain-upper": "chain3",
               "bouquet-upper": "bouquet3", "circuit-upper": "circuit4",
               "link2-lower": "link2", "polymer-lower": "link3",
               "superadditive": "tree3"}

FAMILY_ARGS = {
    "triangular": ["--n", "3"], "square-para": ["--n", "3"],
    "square-ortho": ["--n", "3"], "hex-para": ["--n", "2"],
    "hex-meta": ["--n", "3"], "hex-ortho": ["--n", "3"],
    "clique-flower": ["--m", "3", "--inner", "4"],
    "triangulane-aux": ["--n", "2"], "triangulane": ["--n", "1"],
}


def input_files() -> dict[str, str]:
    files = {
        "k1.txt": "1 0\n",
        "k2.json": json.dumps({"n": 2, "edges": [[0, 1]]}),
        "disconnected.txt": "4 2\n0 1\n2 3\n",
        "not-a-graph.txt": "not a graph\n",
        "short.txt": "3 2\n0 1\n",
        "self-loop.txt": "3 1\n1 1\n",
        "pair-of-one.json": json.dumps({"n": 3, "edges": [[0]]}),
        "bad-json.json": "{\"n\": 3,",
        "bad-spec.json": "{not json",
    }
    files["hex-meta3.txt"] = emit_edge_list(generate(FamilySpec("hex-meta", n=3)).graph)
    files["triangular2.txt"] = emit_edge_list(generate(FamilySpec("triangular", n=2)).graph)
    files["flower33.json"] = emit_graph_json(
        generate(FamilySpec("clique-flower", m=3, inner=3)).graph)
    files["triangulane1.json"] = emit_graph_json(generate(FamilySpec("triangulane", n=1)).graph)
    for name, spec in SPECS.items():
        files[f"{name}.json"] = json.dumps(spec, sort_keys=True)
    return files


def cases() -> list[list[str]]:
    out: list[list[str]] = []
    for family, args in FAMILY_ARGS.items():
        for fmt in ("edgelist", "json"):
            out.append(["gen", "--family", family, *args, "--format", fmt])
    out.append(["gen", "--family", "triangular", "--n", "0"])

    for graph in ("hex-meta3.txt", "triangular2.txt", "flower33.json",
                  "triangulane1.json", "k1.txt", "k2.json"):
        for fmt in ("json", "csv", "text"):
            out.append(["compute", graph, "--format", fmt])
            out.append(["compute", graph, "--per-edge", "--format", fmt])
        for index in ("mostar", "edge-mostar", "wiener"):
            out.append(["compute", graph, "--index", index, "--format", "json"])
    for fmt in ("json", "csv", "text"):
        out.append(["compute", "disconnected.txt", "--format", fmt])
    for bad in ("not-a-graph.txt", "short.txt", "self-loop.txt",
                "pair-of-one.json", "bad-json.json", "missing.txt"):
        out.append(["compute", bad])

    for fmt in ("csv", "json", "text"):
        out.append(["verify", "--families", "all", "--from", "1", "--to", "5",
                    "--m-range", "1..4", "--inner-range", "1..4", "--format", fmt])
    out.append(["verify", "--families", "clique-flower", "--m-range", "a..3"])

    for which, spec in BOUND_SPECS.items():
        for index in ("mostar", "edge-mostar", "both"):
            for fmt in ("json", "text"):
                out.append(["bounds", f"{spec}.json", "--which", which,
                            "--index", index, "--format", fmt])
    for which, spec in (("link2-lower", "link3"), ("chain-upper", "link3"),
                        ("circuit-upper", "chain3"), ("bouquet-upper", "tree3")):
        out.append(["bounds", f"{spec}.json", "--which", which])
    out.append(["bounds", "bad-spec.json", "--which", "link-upper"])

    for name in SPECS:
        for fmt in ("edgelist", "json"):
            out.append(["compose", f"{name}.json", "--format", fmt])
    return out


def run(argv, readouterr) -> dict:
    code = main(argv)
    out, err = readouterr()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in input_files().items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_golden_covers_the_recorded_calls(expected):
    assert [case["argv"] for case in expected] == cases()


@pytest.mark.parametrize("index", range(len(cases())),
                         ids=[" ".join(argv) for argv in cases()])
def test_cli_output_is_unchanged(index, expected, workdir, capsys):
    assert run(expected[index]["argv"], capsys.readouterr) == expected[index]


def record() -> None:
    """Re-record ``golden_cli.json`` from the current program."""
    out, err = io.StringIO(), io.StringIO()

    def readouterr():
        captured = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return captured

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in input_files().items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                results = [run(argv, readouterr) for argv in cases()]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n")
    print(f"recorded {len(results)} calls in {GOLDEN}")


if __name__ == "__main__":
    record()
