import json
import sys

import pytest

import causalstruct
from causalstruct import (
    FormatError,
    bbn_from_dict,
    bbn_to_dict,
    bbn_to_sem,
    intervene_bbn,
    load_bbn,
    save_bbn,
    load_sem,
    load_system,
    sem_from_dict,
    sem_to_dict,
    system_from_dict,
    system_to_dict,
)
from causalstruct.cli import main

from conftest import DATA
from generators import independent_binary_network


RING = 3000


def ring_names(n=RING):
    """Vertex i's single parent is vertex i - 1, and vertex 0's is the last."""
    return [(f"v{i}", f"v{(i - 1) % n}") for i in range(n)]


def run(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as stop:  # argparse-level exits
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_self_contained_acyclic(self, capsys):
        code, out, err = run(["check", DATA / "seat_belts.json"], capsys)
        assert code == 0
        assert out == "self-contained: yes\nacyclic: yes\n"

    def test_self_contained_cyclic(self, capsys):
        code, out, err = run(["check", DATA / "feedback.json"], capsys)
        assert code == 0
        assert out == "self-contained: yes\nacyclic: no\n"

    def test_failure_reports_witnesses(self, capsys):
        code, out, err = run(["check", DATA / "unused_variable.json"], capsys)
        assert code == 1
        assert "self-contained: no" in out
        assert "variables in no equation: y" in out
        assert "violating subset: {e1, e2} covering variables {x}" in out
        assert err.startswith("error:not-self-contained:")

    @pytest.mark.parametrize(
        "name", ["seat_belts.json", "feedback.json", "unused_variable.json"]
    )
    def test_decides_self_containment_once(self, capsys, monkeypatch, name):
        calls = []
        original = causalstruct.check_system

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("causalstruct") and (
                getattr(module, "check_system", None) is original
            ):
                monkeypatch.setattr(module, "check_system", counted)
        run(["check", DATA / name], capsys)
        assert len(calls) == 1


class TestOrder:
    def test_chain_table(self, capsys):
        code, out, err = run(["order", DATA / "drunk_driving.json"], capsys)
        assert code == 0
        assert out == (
            "order  degree  variables\n"
            "    0       1  d\n"
            "    1       1  a\n"
            "    2       1  m\n"
            "edges:\n"
            "  d -> a\n"
            "  a -> m\n"
        )

    def test_extended_table(self, capsys):
        code, out, err = run(["order", DATA / "seat_belts.json"], capsys)
        assert code == 0
        assert out == (
            "order  degree  variables\n"
            "    0       1  d\n"
            "    0       1  b\n"
            "    1       1  a\n"
            "    2       1  m\n"
            "edges:\n"
            "  d -> a\n"
            "  b -> m\n"
            "  a -> m\n"
        )

    def test_feedback_cluster_table(self, capsys):
        code, out, err = run(["order", DATA / "feedback.json"], capsys)
        assert code == 0
        assert "    0       2  x, y" in out

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "ordering.dot"
        code, out, err = run(["order", DATA / "drunk_driving.json", "--dot", dot], capsys)
        assert code == 0
        text = dot.read_text()
        assert "d -> a;" in text
        assert "a -> m;" in text

    def test_not_self_contained(self, capsys):
        code, out, err = run(["order", DATA / "unused_variable.json"], capsys)
        assert code == 1
        assert err.startswith("error:not-self-contained:")


class TestTriangularize:
    def test_extended_model(self, capsys):
        code, out, err = run(["triangularize", DATA / "seat_belts.json"], capsys)
        assert code == 0
        assert out == (
            "row order: e1, e2, e4, e3\n"
            "column order: d, a, b, m\n"
            "determined by:\n"
            "  e1 -> d\n"
            "  e2 -> a\n"
            "  e4 -> b\n"
            "  e3 -> m\n"
        )

    def test_cyclic_witness(self, capsys):
        code, out, err = run(["triangularize", DATA / "feedback.json"], capsys)
        assert code == 1
        assert err == "error:cyclic: witness {e1, e2}\n"


class TestToSem:
    def test_writes_file(self, capsys, tmp_path, xy_bbn):
        out_path = tmp_path / "xy_sem.json"
        code, out, err = run(["to-sem", DATA / "xy.json", "--out", out_path], capsys)
        assert code == 0
        assert load_sem(out_path) == bbn_to_sem(xy_bbn)

    def test_stdout_when_no_out(self, capsys, xy_bbn):
        code, out, err = run(["to-sem", DATA / "xy.json"], capsys)
        assert code == 0
        assert sem_from_dict(json.loads(out)) == bbn_to_sem(xy_bbn)

    def test_invalid_network(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "nodes": [
                        {
                            "name": "x",
                            "outcomes": ["t", "f"],
                            "parents": [],
                            "cpt": [[0.7, 0.2]],
                        }
                    ]
                }
            )
        )
        code, out, err = run(["to-sem", bad], capsys)
        assert code == 1
        assert "row-sum" in out
        assert err.startswith("error:invalid-bbn:")


class TestVerify:
    def test_paper_network(self, capsys):
        code, out, err = run(["verify", DATA / "xy.json"], capsys)
        assert code == 0
        assert out.startswith("max deviation ")
        assert out.rstrip().endswith("roundtrip: ok")
        deviation = float(out.split("max deviation ")[1].split(";")[0])
        assert deviation <= 1e-12

    def test_long_ring_reports_the_cycle(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        nodes = [
            {"name": v, "outcomes": ["a", "b"], "parents": [p], "cpt": [[0.5, 0.5]] * 2}
            for v, p in ring_names()
        ]
        path.write_text(json.dumps({"nodes": nodes}))
        code, out, err = run(["verify", path], capsys)
        assert code == 1
        assert out == "cycle: cycle through " + " -> ".join(v for v, _ in ring_names()) + "\n"
        assert err.startswith("error:invalid-bbn:")


class TestSample:
    def test_deterministic_output(self, capsys, tmp_path, xy_bbn):
        sem_path = tmp_path / "xy_sem.json"
        run(["to-sem", DATA / "xy.json", "--out", sem_path], capsys)
        code1, out1, _ = run(["sample", sem_path, "--seed", "42", "--count", "5000"], capsys)
        code2, out2, _ = run(["sample", sem_path, "--seed", "42", "--count", "5000"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("draws: 5000\nseed: 42\n")

    def test_counts_sum_to_draws(self, capsys, tmp_path):
        sem_path = tmp_path / "xy_sem.json"
        run(["to-sem", DATA / "xy.json", "--out", sem_path], capsys)
        code, out, _ = run(["sample", sem_path, "--seed", "1", "--count", "1000"], capsys)
        lines = out.splitlines()[3:]
        assert sum(int(line.split()[2]) for line in lines) == 1000

    def test_long_ring_is_cyclic(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        equations = [
            {"target": v, "parents": [p], "thresholds": [[0.5, 1.0]] * 2}
            for v, p in ring_names()
        ]
        path.write_text(json.dumps({"equations": equations}))
        code, out, err = run(["sample", path, "--count", "10"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error:cyclic: cycle through nodes {list(range(RING))}\n"


class TestIntervene:
    def test_writes_mutilated_network_and_table(self, capsys, tmp_path, xy_bbn):
        out_path = tmp_path / "after.json"
        code, out, err = run(
            [
                "intervene",
                DATA / "xy.json",
                "--node",
                "x",
                "--dist",
                "1.0,0.0",
                "--out",
                out_path,
            ],
            capsys,
        )
        assert code == 0
        assert load_bbn(out_path) == intervene_bbn(xy_bbn, 0, (1.0, 0.0))
        assert "variable  max marginal deviation" in out
        assert "y         3.000e-01" in out

    def test_unknown_node(self, capsys, tmp_path):
        code, out, err = run(
            [
                "intervene",
                DATA / "xy.json",
                "--node",
                "zz",
                "--dist",
                "1.0,0.0",
                "--out",
                tmp_path / "x.json",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:usage:")

    def test_network_past_the_enumeration_bound(self, capsys, tmp_path):
        path = tmp_path / "coins.json"
        save_bbn(independent_binary_network(40), path)
        out_path = tmp_path / "after.json"
        code, out, err = run(
            ["intervene", path, "--node", "c0", "--dist", "1,0", "--out", out_path], capsys
        )
        assert code == 2
        assert err.startswith("error:usage:") and "enumeration bound" in err
        assert not out_path.exists()

    def test_missing_dist_flag(self, capsys, tmp_path):
        code, out, err = run(
            ["intervene", DATA / "xy.json", "--node", "x", "--out", tmp_path / "x.json"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:usage:")


class TestGraph:
    def test_network_dot(self, capsys):
        code, out, err = run(["graph", DATA / "xy.json"], capsys)
        assert code == 0
        assert "digraph bbn {" in out
        assert "x -> y;" in out

    def test_system_ordering_dot(self, capsys):
        code, out, err = run(["graph", DATA / "drunk_driving.json"], capsys)
        assert code == 0
        assert "digraph causal_ordering {" in out
        assert "d -> a;" in out

    def test_dot_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run(["graph", DATA / "xy.json", "--dot", target], capsys)
        assert code == 0
        assert "x -> y;" in target.read_text()


class TestErrorChannel:
    def test_missing_file(self, capsys):
        code, out, err = run(["check", "nope.json"], capsys)
        assert code == 2
        assert err.startswith("error:io:")

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, out, err = run(["check", bad], capsys)
        assert code == 2
        assert err.startswith("error:parse:")

    @pytest.mark.parametrize("command", ["check", "verify", "graph", "sample"])
    def test_over_deep_nesting_is_a_parse_error(self, capsys, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, out, err = run([command, deep], capsys)
        assert code == 2
        assert err.startswith("error:parse:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "verify", "graph", "sample"])
    def test_undecodable_bytes_are_a_parse_error(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run([command, bad], capsys)
        assert code == 2
        assert err.startswith("error:parse:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, kind", [("check", "system"), ("graph", "system"), ("verify", "network"), ("graph", "network")]
    )
    def test_oversized_integer_literal_is_a_parse_error(self, capsys, tmp_path, command, kind):
        huge = "1" * 5001  # past the interpreter's limit on integer-string conversion
        docs = {
            "system": {"variables": ["a"], "equations": [{"label": "e", "vars": ["a", "HUGE"]}]},
            "network": {"nodes": [{"name": "x", "outcomes": ["t", "f"], "parents": [], "cpt": [["HUGE", 0]]}]},
        }
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(docs[kind]).replace('"HUGE"', huge))
        with pytest.raises(FormatError):
            (load_system if kind == "system" else load_bbn)(path)
        code, out, err = run([command, path], capsys)
        assert code == 2
        assert err.startswith("error:parse:")
        assert err.count("\n") == 1

    def test_format_violation(self, capsys, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"variables": ["x"], "equations": [], "bogus": 1}))
        code, out, err = run(["check", bad], capsys)
        assert code == 2
        assert err.startswith("error:parse:")

    def test_unknown_subcommand(self, capsys):
        code, out, err = run(["frobnicate"], capsys)
        assert code == 2
        assert err.startswith("error:usage:")

    def test_bad_dist_csv(self, capsys, tmp_path):
        code, out, err = run(
            [
                "intervene",
                DATA / "xy.json",
                "--node",
                "x",
                "--dist",
                "one,zero",
                "--out",
                tmp_path / "x.json",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:usage:")


class TestGoldenCorpusRoundTrips:
    @pytest.mark.parametrize(
        "name",
        [
            "drunk_driving.json",
            "seat_belts.json",
            "nonstructural.json",
            "feedback.json",
            "unused_variable.json",
        ],
    )
    def test_system_files(self, name):
        doc = json.loads((DATA / name).read_text())
        parsed = system_from_dict(doc)
        assert system_from_dict(system_to_dict(parsed)) == parsed

    def test_network_files(self):
        doc = json.loads((DATA / "xy.json").read_text())
        parsed = bbn_from_dict(doc)
        assert bbn_from_dict(bbn_to_dict(parsed)) == parsed
