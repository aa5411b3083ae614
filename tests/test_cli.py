import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causalstruct
from causalstruct import (
    FormatError,
    ThresholdEquation,
    ThresholdEquationSystem,
    bbn_from_dict,
    bbn_to_dict,
    bbn_to_dot,
    bbn_to_sem,
    causal_ordering,
    intervene_bbn,
    load_bbn,
    save_bbn,
    load_sem,
    load_system,
    ordering_to_dot,
    sem_from_dict,
    sem_to_dict,
)
from causalstruct.cli import main

from conftest import DATA
from generators import binary_chain_network, fan_in_sem_doc, independent_binary_network, random_bbn


RING = 3000


def ring_names(n=RING):
    """Vertex i's single parent is vertex i - 1, and vertex 0's is the last."""
    return [(f"v{i}", f"v{(i - 1) % n}") for i in range(n)]


def run(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as stop:  # --help and --version exit inside argparse
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
                vars(module).get("check_system") is original
            ):
                monkeypatch.setattr(module, "check_system", counted)
        run(["check", DATA / name], capsys)
        assert len(calls) == 1


class TestSelfContainmentGate:
    @pytest.mark.parametrize("command", ["order", "triangularize", "graph"])
    def test_refuses_a_system_that_is_not_self_contained(self, capsys, command):
        path = DATA / "unused_variable.json"
        code, out, err = run([command, path], capsys)
        report = causalstruct.check_system(load_system(path))
        assert (code, out) == (1, "")
        assert err == f"error:not-self-contained: {report.describe()}\n"


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

    def test_a_system_of_no_equations_has_an_empty_table(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"variables": [], "equations": []}')
        assert run(["order", path], capsys) == (0, "order  degree  variables\nedges:\n", "")

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

    def test_unwritable_dot_prints_nothing(self, capsys, tmp_path):
        # The DOT file is written before the table, so a failed write prints no table.
        code, out, err = run(["order", DATA / "seat_belts.json", "--dot", tmp_path], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:io:")
        assert err.count("\n") == 1


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

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "sem.json"
        bbn_path = tmp_path / "bbn.json"
        save_bbn(random_bbn(random.Random(31), max_nodes=6, max_outcomes=3, max_parents=2), bbn_path)
        for source in (DATA / "xy.json", bbn_path):
            code, out, err = run(["to-sem", source], capsys)
            assert code == 0
            assert run(["to-sem", source, "--out", out_path], capsys) == (0, "", "")
            assert out_path.read_bytes() == out.encode("utf-8")

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


# Five entries whose exact sum is within 1e-9 of 1, as ``validate`` requires,
# but whose plain left-to-right sum, 1.000000001, is not.
BOUNDARY_ROW = [0.236061891794, 0.284752633168, 0.272273496625, 0.007390649651, 0.199521329762]


@pytest.fixture
def boundary_bbn(tmp_path):
    path = tmp_path / "boundary.json"
    node = {"name": "x", "outcomes": list("abcde"), "parents": [], "cpt": [BOUNDARY_ROW]}
    path.write_text(json.dumps({"nodes": [node]}))
    return path


class TestBoundaryRow:
    """A network that ``validate`` accepts is never refused by a later step."""

    def test_to_sem_ends_the_row_at_one(self, capsys, boundary_bbn):
        code, out, err = run(["to-sem", boundary_bbn], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["equations"][0]["thresholds"][0][-1] == 1.0

    def test_verify_accepts(self, capsys, boundary_bbn):
        code, out, err = run(["verify", boundary_bbn], capsys)
        assert (code, err) == (0, "")
        assert out.rstrip().endswith("roundtrip: ok")

    def test_verify_accepts_two_nodes_short_of_one(self, capsys, tmp_path):
        # Each row sums to 1 - 9.9e-10, which validate accepts; the joint gap
        # is 1.98e-9, twice the row-sum tolerance.
        short = 1.0 - 9.9e-10
        nodes = [
            {"name": "x", "outcomes": ["a", "b"], "parents": [], "cpt": [[0.0, short]]},
            {"name": "y", "outcomes": ["a", "b"], "parents": ["x"], "cpt": [[0.0, short]] * 2},
        ]
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"nodes": nodes}))
        code, out, err = run(["verify", path], capsys)
        assert (code, err) == (0, "")
        assert out == "max deviation 1.980e-09; roundtrip: ok\n"


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

    def test_a_count_too_long_to_print_names_the_bound(self, capsys, tmp_path):
        path = tmp_path / "coins.json"
        save_bbn(independent_binary_network(15000), path)
        assert run(["verify", path], capsys) == (
            2,
            "",
            "error:usage: at least 2**15000 joint configurations exceed the enumeration bound 1048576\n",
        )

    def test_converts_once(self, capsys, monkeypatch):
        calls = []
        original = causalstruct.bbn_to_sem

        def counted(bbn):
            calls.append(bbn)
            return original(bbn)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("causalstruct") and (
                vars(module).get("bbn_to_sem") is original
            ):
                monkeypatch.setattr(module, "bbn_to_sem", counted)
        code, out, err = run(["verify", DATA / "xy.json"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_a_shifted_threshold_fails(self, capsys, monkeypatch):
        original = causalstruct.bbn_to_sem

        def shifted(bbn):
            sem = original(bbn)
            first, *rest = sem.equations
            row, *rows = first.thresholds
            moved = ThresholdEquation(first.parents, ((row[0] + 1e-6, *row[1:]), *rows))
            return ThresholdEquationSystem(sem.variable_names, (moved, *rest))

        monkeypatch.setattr(causalstruct.sem, "bbn_to_sem", shifted)
        code, out, err = run(["verify", DATA / "xy.json"], capsys)
        assert code == 1
        # x's intervals move by 1e-6, and y's largest conditional probability is 0.8.
        assert out == "max deviation 8.000e-07; roundtrip: ok\n"
        assert err.startswith("error:verify:")


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

    # sha256 of `sample --seed 5` stdout, recorded from the per-draw
    # sampler that evaluated one draw at a time.  Both systems take the byte
    # lanes, which draw `sem.CHUNK` (4096) per chunk; net30's counts straddle
    # one and two chunks.  The counts near 1024 straddle the float pass's
    # `CHUNK // 4`, which neither system takes.  fan-256 and fan-27, each one
    # child of all its roots (`generators.fan_in_sem_doc`: 8 binary roots,
    # and 3 ternary roots), have equations of 256 and 27 rows; their digests
    # were recorded from the per-draw reference, `oracles.reference_report`.
    GOLDEN = {
        ("xy", 1): "376313a7ff8f135875da5a5a66f63de72cbb364b9ae5a62c04121f208170b16f",
        ("xy", 1023): "d09d065a0ac6e9af07cf577fbfbb8675f2c5c96fdc494e2a03c8c39c2de375e8",
        ("xy", 1024): "708ee71186fe2314cba294b098bb7b4b7291e1e4948d0be4e19b5cfa3597259e",
        ("xy", 1025): "aa4db6081d60b8ff46e713942005805549eca3d7972e89d12adb5c31ed09c233",
        ("xy", 2051): "510e8322848a65e6166244e199def7a30888e52083cd66f0a6ce4ca8259990f5",
        ("xy", 3000): "4451c070a9d6cd70b082bce4538d98e05aa6b7e4533db10db1ac7866c7720ff6",
        ("net30", 1): "20c0c8875fe9e6659dc1f18b3679ca8646739f61d9b5c87f09aece7e1d44baf1",
        ("net30", 1023): "977858132fd966bdf80be4e73be4d29fb229d041e654d8c450c7dc479500fbbb",
        ("net30", 1024): "70955ff2cab22018d1beeb8ffd81571d25989f876bf47b94be17a24904f16bfe",
        ("net30", 1025): "ff60b9950a1ab43e02411612ebcb46789acfa9f54988f146fff7192f71d7cfd7",
        ("net30", 2051): "98f8a0ab5722cc902e9710e8bc21aff5b08664386c248b9fba2fba87937ab1b9",
        ("net30", 3000): "0a5bf3e3859fb9145ed6e6187fc216f182f21f7e48e9fb935705389cd63a2dce",
        ("net30", 4095): "a82d48f095663ad2d7052a7486bd1ff36b84d42b0a3212d1de0e64d9a83bcc53",
        ("net30", 4096): "f31cddc7d599ba4233e4b4329d91427219317e867524bdb8600521fddb7472b1",
        ("net30", 4097): "63314dde27c33e1f18d5e0237f05a0e6b8e7df3483904d90dedb8cfe42449ece",
        ("net30", 8195): "1c9b8969b2c39804e21680ab639394eeee817257d1758d714494453fe3050bca",
        ("fan-256", 4097): "75da2f1d2ac654995d09333b7582be3dc0c3aa3cb9a1bec82028f10ac5a7da1c",
        ("fan-27", 4097): "9722a7d7cdd65040ca4fee2a819355add717f014ed0bbd67240892c84948ea46",
    }
    FANS = {"fan-256": (8, 2), "fan-27": (3, 3)}

    @pytest.mark.parametrize("name", ["xy", "net30", "fan-256", "fan-27"])
    def test_golden_digests(self, capsys, tmp_path, name):
        sem_path = tmp_path / "sem.json"
        if name in self.FANS:
            parents, outcomes = self.FANS[name]
            sem_path.write_text(json.dumps(fan_in_sem_doc(random.Random(outcomes**parents), parents, outcomes)))
        else:
            if name == "xy":
                bbn_path = DATA / "xy.json"
            else:
                # Nine nodes of two or three outcomes, up to three parents each.
                bbn_path = tmp_path / "net30.json"
                save_bbn(random_bbn(random.Random(30), max_nodes=9, max_outcomes=3, max_parents=3), bbn_path)
            assert run(["to-sem", bbn_path, "--out", sem_path], capsys)[0] == 0
        for (net, count), digest in self.GOLDEN.items():
            if net == name:
                code, out, err = run(["sample", sem_path, "--seed", 5, "--count", count], capsys)
                assert (code, err) == (0, "")
                assert hashlib.sha256(out.encode()).hexdigest() == digest, count

    def test_empty_system_prints_one_empty_row(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"equations": []}')
        code, out, err = run(["sample", path, "--seed", "4", "--count", "3"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "draws: 3\nseed: 4\n"
            "assignment       count  frequency\n"
            "                     3  1.000000\n"
        )

    @pytest.mark.parametrize(
        "equations",
        [
            [
                {"target": "x", "parents": [], "thresholds": [[0.5, 1.0]]},
                {"target": "y", "parents": ["x", "x"], "thresholds": [[0.5, 1.0]] * 4},
            ],
            [{"target": "", "parents": [], "thresholds": [[0.5, 1.0]]}],
        ],
        ids=["repeated-parent", "empty-target"],
    )
    def test_malformed_system_is_a_parse_error(self, capsys, tmp_path, equations):
        path = tmp_path / "sem.json"
        path.write_text(json.dumps({"equations": equations}))
        code, out, err = run(["sample", path, "--count", 5], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:parse:")
        assert err.count("\n") == 1

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
        assert err == "error:cyclic: cycle through " + " -> ".join(v for v, _ in ring_names()) + "\n"

    def test_names_a_two_variable_cycle(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        equations = [
            {"target": "rain", "parents": ["wet"], "thresholds": [[0.5, 1.0]] * 2},
            {"target": "wet", "parents": ["rain"], "thresholds": [[0.5, 1.0]] * 2},
        ]
        path.write_text(json.dumps({"equations": equations}))
        code, out, err = run(["sample", path, "--count", "10"], capsys)
        assert (code, out, err) == (1, "", "error:cyclic: cycle through rain -> wet\n")


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

    def test_unaffected_variable_prints_an_exact_zero(self, capsys, tmp_path):
        argv = ["intervene", DATA / "xy.json", "--node", "y", "--dist", "0.5,0.5"]
        code, out, err = run([*argv, "--out", tmp_path / "after.json"], capsys)
        assert (code, err) == (0, "")
        assert out == "variable  max marginal deviation\nx         0.000e+00\ny         1.000e-01\n"

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

    def test_unknown_node_is_one_usage_line_and_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "after.json"
        argv = ["intervene", DATA / "xy.json", "--node", "nope", "--dist", "1,0", "--out", out_path]
        assert run(argv, capsys) == (2, "", "error:usage: unknown node 'nope'\n")
        assert not out_path.exists()

    def test_network_past_the_enumeration_bound(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        save_bbn(binary_chain_network(21), path)
        out_path = tmp_path / "after.json"
        code, out, err = run(
            ["intervene", path, "--node", "c20", "--dist", "1,0", "--out", out_path], capsys
        )
        assert code == 2
        assert err.startswith("error:usage:") and "enumeration bound" in err
        assert not out_path.exists()

    def test_only_the_cut_node_is_enumerated(self, capsys, tmp_path):
        # 2**40 joint configurations, of which the cut coin's ancestors span 2.
        path = tmp_path / "coins.json"
        save_bbn(independent_binary_network(40), path)
        out_path = tmp_path / "after.json"
        code, out, err = run(
            ["intervene", path, "--node", "c0", "--dist", "1,0", "--out", out_path], capsys
        )
        assert code == 0
        assert out.splitlines()[1:3] == ["c0        5.000e-01", "c1        0.000e+00"]
        assert load_bbn(out_path) == intervene_bbn(independent_binary_network(40), 0, (1.0, 0.0))

    def test_missing_dist_flag(self, capsys, tmp_path):
        code, out, err = run(
            ["intervene", DATA / "xy.json", "--node", "x", "--out", tmp_path / "x.json"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:usage:")

    @pytest.mark.parametrize("node, dist", [("nosuch", "1,0"), ("x", "2,0")], ids=["unknown-node", "bad-dist"])
    def test_invalid_network_is_refused_before_node_and_dist(self, node, dist, capsys, tmp_path):
        doc = json.loads((DATA / "xy.json").read_text())
        doc["nodes"][0]["cpt"] = [[0.6, 0.5]]  # sums to 1.1
        path, out_path = tmp_path / "bad.json", tmp_path / "after.json"
        path.write_text(json.dumps(doc))
        argv = ["intervene", path, "--node", node, "--dist", dist, "--out", out_path]
        report = "row-sum [x]: row 0 sums to 1.1\n"
        assert run(argv, capsys) == (1, report, "error:invalid-bbn: network failed validation\n")
        assert not out_path.exists()


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


# A failing command with no usable stderr: its argv, exit code and stdout.
STDERR_CASES = [
    (["check", "nope.json"], 2, ""),
    (["frobnicate"], 2, ""),
    (
        ["check", DATA / "unused_variable.json"],
        1,
        "self-contained: no\nvariables in no equation: y\nviolating subset: {e1, e2} covering variables {x}\n",
    ),
]


class TestErrorChannel:
    def test_missing_file(self, capsys):
        code, out, err = run(["check", "nope.json"], capsys)
        assert code == 2
        assert err.startswith("error:io:")

    def test_stdout_whose_reader_has_gone_is_an_io_error(self, capsys, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        with io.TextIOWrapper(io.FileIO(write, "w"), encoding="utf-8", write_through=True) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code, out, err = run(["check", DATA / "seat_belts.json"], capsys)
        assert code == 2
        assert err.startswith("error:io:") and err.count("\n") == 1

    def test_no_stdout_is_an_io_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as Python starts with fd 1 closed
        code, out, err = run(["check", DATA / "seat_belts.json"], capsys)
        assert (code, err) == (2, "error:io: stdout is closed\n")

    @pytest.mark.parametrize("argv, code, out", STDERR_CASES)
    def test_no_stderr_loses_only_the_error_line(self, capsys, monkeypatch, argv, code, out):
        monkeypatch.setattr(sys, "stderr", None)  # as Python starts with fd 2 closed
        assert run(argv, capsys) == (code, out, "")

    @pytest.mark.parametrize("argv, code, out", STDERR_CASES)
    def test_unwritable_stderr_loses_only_the_error_line(self, capsys, monkeypatch, argv, code, out):
        read, write = os.pipe()
        os.close(read)
        with io.TextIOWrapper(io.FileIO(write, "w"), encoding="utf-8", write_through=True) as stderr:
            monkeypatch.setattr(sys, "stderr", stderr)
            assert run(argv, capsys) == (code, out, "")

    @pytest.mark.parametrize(
        "argv, redirect, err",
        [
            (["check", DATA / "seat_belts.json"], ">&-", "error:io: stdout is closed\n"),
            (["check", "nope.json"], "2>&-", ""),
            (["frobnicate"], "2>&-", ""),
        ],
        ids=["stdout", "stderr", "stderr-usage"],
    )
    def test_closed_descriptor_in_a_shell(self, argv, redirect, err):
        command = [sys.executable, "-m", "causalstruct.cli", *map(str, argv)]
        env = {**os.environ, "PYTHONPATH": str(Path(causalstruct.__file__).parents[1])}
        done = subprocess.run(
            ["sh", "-c", f'"$@" {redirect}', "sh", *command], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", err)

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
        assert err == "error:parse: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

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
        # The program's own words: CPython's differ between versions.
        assert err == f"error:parse: integer literal over {sys.get_int_max_str_digits()} digits\n"

    def test_format_violation(self, capsys, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"variables": ["x"], "equations": [], "bogus": 1}))
        code, out, err = run(["check", bad], capsys)
        assert code == 2
        assert err.startswith("error:parse:")

    @pytest.mark.parametrize(
        "name", ["usage/no-command", "usage/missing-option", "usage/count-not-an-int", "usage/dist-words"]
    )
    def test_parser_errors_return_through_main(self, capsys, tmp_path, name):
        """The corpus's parser-level usage errors return 2 from main, raising no SystemExit."""
        cases = json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))["cases"]
        case = next(case for case in cases if case["name"] == name)
        argv = [arg.replace("{data}", str(DATA)).replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", case["stderr"])
        assert err.startswith("error:usage: ") and err.count("\n") == 1

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
    def test_network_files(self):
        doc = json.loads((DATA / "xy.json").read_text())
        parsed = bbn_from_dict(doc)
        assert bbn_from_dict(bbn_to_dict(parsed)) == parsed


class TestWriters:
    """Every file writer emits ``json.dumps(doc, indent=2)`` and a newline."""

    def test_network_file(self, tmp_path):
        bbn = random_bbn(random.Random(32), max_nodes=6, max_outcomes=3, max_parents=2)
        path = tmp_path / "bbn.json"
        save_bbn(bbn, path)
        assert path.read_bytes() == (json.dumps(bbn_to_dict(bbn), indent=2) + "\n").encode("utf-8")

    def test_equation_file(self, tmp_path, capsys):
        bbn = random_bbn(random.Random(33), max_nodes=6, max_outcomes=3, max_parents=2)
        save_bbn(bbn, tmp_path / "bbn.json")
        sem = bbn_to_sem(bbn)
        path = tmp_path / "sem.json"
        assert run(["to-sem", tmp_path / "bbn.json", "--out", path], capsys) == (0, "", "")
        text = json.dumps(sem_to_dict(sem), indent=2) + "\n"
        assert path.read_bytes() == text.encode("utf-8")
        assert run(["to-sem", tmp_path / "bbn.json"], capsys) == (0, text, "")
        assert load_sem(path) == sem


def _json_file_text(doc):
    return json.dumps(doc, indent=2) + "\n"


# Each command that writes a file: its arguments up to the output path, and
# the text it writes there, built through the library.
FILE_COMMANDS = {
    "order --dot": (
        ["order", DATA / "seat_belts.json", "--dot"],
        lambda: ordering_to_dot(causal_ordering(load_system(DATA / "seat_belts.json"))),
    ),
    "graph --dot": (
        ["graph", DATA / "xy.json", "--dot"],
        lambda: bbn_to_dot(load_bbn(DATA / "xy.json")),
    ),
    "to-sem --out": (
        ["to-sem", DATA / "xy.json", "--out"],
        lambda: _json_file_text(sem_to_dict(bbn_to_sem(load_bbn(DATA / "xy.json")))),
    ),
    "intervene --out": (
        ["intervene", DATA / "xy.json", "--node", "x", "--dist", "1.0,0.0", "--out"],
        lambda: _json_file_text(
            bbn_to_dict(intervene_bbn(load_bbn(DATA / "xy.json"), 0, (1.0, 0.0)))
        ),
    ),
}


@pytest.mark.parametrize("command", FILE_COMMANDS)
class TestOverwrite:
    """``--out`` and ``--dot`` replace the target's contents in place."""

    def write(self, command, target, capsys):
        argv, _ = FILE_COMMANDS[command]
        code, out, err = run([*argv, target], capsys)
        assert (code, err) == (0, "")

    def expected(self, command, tmp_path):
        reference = tmp_path / "reference"
        reference.write_text(FILE_COMMANDS[command][1](), encoding="utf-8")
        return reference.read_bytes()

    def test_new_file_has_the_bytes_write_text_gives(self, capsys, tmp_path, command):
        target = tmp_path / "target"
        self.write(command, target, capsys)
        assert target.read_bytes() == self.expected(command, tmp_path)

    def test_shorter_text_over_longer_leaves_only_the_new_bytes(self, capsys, tmp_path, command):
        target = tmp_path / "target"
        target.write_bytes(b"x" * 100_000 + b"\n")
        self.write(command, target, capsys)
        assert target.read_bytes() == self.expected(command, tmp_path)

    def test_keeps_inode_mode_and_hard_links(self, capsys, tmp_path, command):
        target, alias = tmp_path / "target", tmp_path / "alias"
        target.write_bytes(b"old\n")
        target.chmod(0o600)
        os.link(target, alias)
        before = target.stat()
        self.write(command, target, capsys)
        after = target.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert alias.read_bytes() == target.read_bytes() == self.expected(command, tmp_path)

    def test_symlinked_target_stays_a_symlink(self, capsys, tmp_path, command):
        real, link = tmp_path / "real", tmp_path / "link"
        real.write_bytes(b"old\n" * 1000)
        link.symlink_to(real)
        self.write(command, link, capsys)
        assert link.is_symlink()
        assert real.read_bytes() == self.expected(command, tmp_path)

    def test_device_target(self, capsys, command):
        self.write(command, os.devnull, capsys)

    def test_directory_target_is_an_io_error(self, capsys, tmp_path, command):
        # Every command writes before it prints, so a failed write prints nothing.
        argv, _ = FILE_COMMANDS[command]
        code, out, err = run([*argv, tmp_path], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:io:")
        assert err.count("\n") == 1


class TestUnencodableName:
    """A name UTF-8 cannot encode is a usage error that leaves the DOT target as it was
    and prints nothing on stdout."""

    NAME = "\ud800x"  # a lone surrogate: valid in JSON, not in UTF-8

    @pytest.fixture(
        params=[
            ("graph", {"nodes": [{"name": NAME, "outcomes": ["t", "f"], "parents": [], "cpt": [[0.4, 0.6]]}]}, 17),
            ("order", {"variables": [NAME], "equations": [{"label": "e1", "vars": [NAME]}]}, 29),
        ],
        ids=["graph", "order"],
    )
    def case(self, request, tmp_path):
        command, doc, position = request.param
        source = tmp_path / "source.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        message = (
            f"error:usage: 'utf-8' codec can't encode character '\\ud800' in position {position}:"
            " surrogates not allowed\n"
        )
        return [command, source, "--dot"], message

    def test_new_target_is_not_created(self, capsys, tmp_path, case):
        argv, message = case
        target = tmp_path / "G.dot"
        assert run([*argv, target], capsys) == (2, "", message)
        assert not target.exists()

    def test_existing_target_keeps_its_bytes(self, capsys, tmp_path, case):
        argv, message = case
        target = tmp_path / "G.dot"
        target.write_bytes(b"digraph old {}\n")
        assert run([*argv, target], capsys) == (2, "", message)
        assert target.read_bytes() == b"digraph old {}\n"

    INVALID = {"nodes": [{"name": NAME, "outcomes": ["t", "f"], "parents": [], "cpt": [[0.5, 0.6]]}]}
    SYSTEM = {"variables": [NAME], "equations": [{"label": "e1", "vars": [NAME]}]}
    ENCODE_ERROR = re.compile(
        r"error:usage: 'utf-8' codec can't encode character '\\ud800' in position \d+:"
        r" surrogates not allowed\n"
    )

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("verify", INVALID),
            ("to-sem", INVALID),
            ("order", SYSTEM),
            ("triangularize", SYSTEM),
            (
                "check",
                {"variables": [NAME, "y"], "equations": [{"label": "e1", "vars": ["y"]}, {"label": "e2", "vars": ["y"]}]},
            ),
        ],
    )
    def test_report_is_not_printed(self, capsys, tmp_path, command, doc):
        source = tmp_path / "source.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run([command, source], capsys)
        assert (code, out) == (2, "")
        assert self.ENCODE_ERROR.fullmatch(err), err

    def test_intervene_writes_out_but_prints_nothing(self, capsys, tmp_path):
        node = {"outcomes": ["t", "f"], "parents": [], "cpt": [[0.5, 0.5]]}
        source = tmp_path / "source.json"
        source.write_text(json.dumps({"nodes": [{"name": "a", **node}, {"name": self.NAME, **node}]}))
        target = tmp_path / "after.json"
        code, out, err = run(["intervene", source, "--node", "a", "--dist", "1,0", "--out", target], capsys)
        assert (code, out) == (2, "")
        assert self.ENCODE_ERROR.fullmatch(err), err
        # The JSON escapes the name as \ud800, so --out is written before stdout fails.
        assert '"name": "\\ud800x"' in target.read_text(encoding="utf-8")
        assert load_bbn(target).nodes[1].name == self.NAME
