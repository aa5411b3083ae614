"""Small, fast tests of the benchmark itself: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import causalstruct as cs
from causalstruct import triangular

from bench import checks, generate, harness, workloads
from bench.workloads import CliResult, Op

TINY = {
    "structure": {
        "systems": [
            {"kind": "dag", "n": 40, "parents": 3},
            {"kind": "feedback", "n": 40, "parents": 3, "feedback_share": 0.3, "max_block": 3},
            {"kind": "chain", "n": 30},
            {"kind": "chain", "n": 1200},
        ]
    },
    "networks": {
        "count": 12,
        "shape_seed": 1,
        "network": {"max_nodes": 4, "max_outcomes": 3, "max_parents": 2, "parent_prob": 0.5, "zero_prob": 0.15},
        "degenerate_prob": 0.3,
        "cli_networks": 1,
    },
    "sample": {
        "network": {"nodes": 5, "outcomes": [2, 3], "parents": 2},
        "draws": 3000,
    },
}


@pytest.fixture
def tiny(monkeypatch):
    manifest = copy.deepcopy(harness.MANIFEST)
    for name, params in TINY.items():
        manifest["workloads"][name]["params"] = params
    manifest["setup_repeats"] = 1
    monkeypatch.setattr(harness, "MANIFEST", manifest)


def names(group: str) -> list[str]:
    return [spec["name"] for spec in harness.BENCHMARK[group]]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_each_workload_emits_every_metric(tiny, tmp_path, workload):
    runner = harness.Runner()
    result = harness.end_to_end(workload, 5, 1, tmp_path, runner)["json"]
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result = harness.traced(workload, 5, tmp_path, runner, tmp_path / "trace.jsonl")["json"]
    assert result["correct"]
    assert list(result["metrics"]) == names("per_layer")
    spans = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(spans) == result["metrics"]["trace.spans"]["value"]


def test_traced_counts_repeat_and_self_times_fit_in_wall(tiny, tmp_path):
    runner = harness.Runner()
    for workload in ("structure", "networks"):
        runs = [
            harness.traced(workload, 9, tmp_path, runner, tmp_path / "t.jsonl")["json"]["metrics"]
            for _ in range(2)
        ]
        counts = [
            {k: m["value"] for k, m in run.items() if m["unit"] != "s"} for run in runs
        ]
        assert counts[0] == counts[1]
        for run in runs:
            self_total = sum(m["value"] for k, m in run.items() if k.endswith(".self_s"))
            assert self_total <= run["trace.traced_s"]["value"]


def test_self_time_is_span_minus_children():
    tracer = harness.Tracer()
    with tracer:
        matrix = cs.StructureMatrix.from_names(["a", "b"], [("e1", ["a"]), ("e2", ["a", "b"])])
        cs.causal_ordering(matrix)
    self_s, calls, errors = tracer.layer_totals()
    assert calls["ordering.causal_ordering"] == 1
    assert calls["matching.maximum_matching"] == 2  # once in check_system, once for the ordering
    whole = sum(end - start for name, start, end, parent, op, ok in tracer.spans if parent == -1)
    assert sum(self_s.values()) == pytest.approx(whole)
    assert not any(errors.values())


def test_untraced_run_patches_nothing(tiny, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed a tracer")

    monkeypatch.setattr(harness.Tracer, "install", refuse)
    original = cs.causal_ordering
    harness.end_to_end("sample", 3, 1, tmp_path, harness.Runner())
    assert cs.causal_ordering is original


def test_tracer_restores_every_binding():
    import causalstruct.bbn
    import causalstruct.sem

    before = (cs.check_system, causalstruct.sem.joint_probability, causalstruct.bbn._topo)
    with harness.Tracer():
        assert cs.check_system is not before[0]
        assert causalstruct.sem.joint_probability is not before[1]  # bound by from-import
        assert causalstruct.bbn._topo is not before[2]
    assert (cs.check_system, causalstruct.sem.joint_probability, causalstruct.bbn._topo) == before


# ---------------------------------------------------------------------------
# The checks reject wrong answers


def planted(kind: str, seed: int = 4) -> generate.PlantedSystem:
    share = 0.3 if kind == "feedback" else 0.0
    return generate.planted_system(random.Random(seed), 30, 3, share, 3)


def matrix_of(system):
    return cs.system_from_dict(system.doc())


def test_structure_checks_catch_wrong_answers():
    system = planted("dag")
    matrix = matrix_of(system)
    ordering = cs.causal_ordering(matrix)
    checks.ordering(system, ordering)
    first, *rest = ordering.clusters
    wrong = cs.CausalOrdering(
        matrix, (cs.Cluster(first.equations, first.variables, first.order + 1), *rest),
        ordering.cluster_edges, ordering.variable_edges,
    )
    with pytest.raises(checks.WrongAnswer):
        checks.ordering(system, wrong)

    result = triangular.triangularize(matrix)
    checks.lower_triangular(system, result.row_perm, result.col_perm)
    rows = list(result.row_perm)
    rows[0], rows[-1] = rows[-1], rows[0]
    with pytest.raises(checks.WrongAnswer):
        checks.lower_triangular(system, rows, result.col_perm)

    with pytest.raises(checks.WrongAnswer):
        checks.cli_check(system, CliResult(0, "self-contained: yes\nacyclic: no\n", ""))


def test_cyclic_witness_and_edit_checks():
    system = planted("feedback")
    assert not system.acyclic
    matrix = matrix_of(system)
    with pytest.raises(cs.CyclicStructureError) as caught:
        triangular.triangularize(matrix)
    checks.cyclic_witness(system, caught.value.remaining_equations)
    with pytest.raises(checks.WrongAnswer):
        checks.cyclic_witness(system, set(caught.value.remaining_equations) - {min(caught.value.remaining_equations)})

    equation = 0
    keep = system.blocks[system.eq_block[equation]]
    change = cs.StructuralChange("replace_equation", "e0", tuple(f"v{v}" for v in keep))
    edited = cs.apply_change(matrix, change)
    affected = cs.affected_variables(cs.causal_ordering(edited), equation)
    checks.edit(system, equation, edited, affected)
    with pytest.raises(checks.WrongAnswer):
        checks.edit(system, equation, edited, affected | {system.n + 1})

    root = system.equations_of[0][0]
    equation = system.equations_of[-1][0]
    breaking = cs.StructuralChange(
        "replace_equation", f"e{equation}", tuple(f"v{v}" for v in system.rows[root])
    )
    report = workloads._break(matrix, breaking)
    checks.refused_edit(system, equation, root, report)
    with pytest.raises(checks.WrongAnswer):
        checks.refused_edit(system, equation, root, None)
    with pytest.raises(checks.WrongAnswer):
        checks.refused_edit(system, equation, equation, report)


def test_network_checks_catch_wrong_answers():
    rng = random.Random(8)
    net = generate.random_network(rng, rng, 4, 3, 2, 1.0, 0.0)
    while net.n < 3:
        net = generate.random_network(rng, rng, 4, 3, 2, 1.0, 0.0)
    bbn = cs.bbn_from_dict(net.doc())
    node, dist = net.n - 1, (1.0,) + (0.0,) * (net.counts[-1] - 1)
    result = workloads._verify_network(bbn, node, dist)
    checks.network_lib(net, node, dist, result)

    sem, gap, roundtrip, after, deltas = result
    with pytest.raises(checks.WrongAnswer):
        checks.network_lib(net, node, dist, (sem, gap, False, after, deltas))
    shifted = dict(deltas, **{net.names[node]: deltas[net.names[node]] + 1e-6})
    with pytest.raises(checks.WrongAnswer):
        checks.network_lib(net, node, dist, (sem, gap, roundtrip, after, shifted))
    skewed = cs.bbn_to_sem(cs.intervene_bbn(bbn, 0, (1.0,) + (0.0,) * (net.counts[0] - 1)))
    with pytest.raises(checks.WrongAnswer):
        checks.sem_object(net, skewed)


def test_sample_checks_catch_wrong_tallies():
    net = generate.layered_network(random.Random(2), 4, [2, 3], 2)
    sem = cs.sem_from_dict(net.threshold_doc())
    counts = cs.sample(sem, 11, 20000)
    checks.tallies(net, counts, 20000)

    ranked = counts.most_common()
    common, rare = ranked[0][0], ranked[-1][0]
    moved = Counter(counts)
    moved[common] -= 2000
    moved[rare] += 2000
    with pytest.raises(checks.WrongAnswer):
        checks.tallies(net, moved, 20000)

    def probability(assignment):
        return math.prod(net.row(v, assignment)[assignment[v]] for v in range(net.n))

    impossible = next(
        a for a in itertools.product(*(range(k) for k in net.counts)) if probability(a) == 0.0
    )
    drawn = Counter(counts)
    drawn[common] -= 1
    drawn[impossible] += 1
    with pytest.raises(checks.WrongAnswer):
        checks.tallies(net, drawn, 20000)


def test_harness_counts_a_wrong_answer_as_failed():
    runner = harness.Runner()
    op = Op("lib", "wrong", lambda result: checks.require(result == 2, "not two"), call=lambda: 3)
    sample = runner.execute(op)
    assert sample.outcome == "wrong"
    op = Op("lib", "raises", lambda result: None, call=lambda: 1 / 0)
    assert runner.execute(op).outcome == "error"


def test_tail_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]
    assert harness.tail(values) == (30.0, 75.0, 10)
    assert harness.tail(values[:20]) == (10.0, 50.0, 10)
    assert harness.tail(values[:19]) == (19.0, 100.0, 0)
    assert harness.ranked([(1.0, True), (0.1, False), (0.5, True)], 9.0) == [0.5, 1.0, 9.0]


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["bench"]
