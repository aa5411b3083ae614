"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from causalstruct import (
    bbn_to_sem,
    causal_ordering,
    check_equivalence,
    compare_marginals,
    intervene_bbn,
    is_triangularizable,
    roundtrip_check,
    sample,
    sem_joint,
)
from causalstruct.intervention import affected_variables

from generators import (
    random_bbn,
    random_distribution,
    random_self_contained_system,
)
from oracles import brute_self_contained_subsets, naive_causal_ordering, ordering_restores_dag


def conclude(number, description, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {budget:.0f}s) {description}")


@pytest.fixture(scope="module")
def random_networks():
    rng = random.Random(20260810)
    return [random_bbn(rng, max_nodes=6, max_outcomes=4) for _ in range(500)]


def named_clusters(ordering):
    names = ordering.matrix.variable_names
    return {
        (frozenset(names[v] for v in c.variables), c.order) for c in ordering.clusters
    }


def named_edges(ordering):
    names = ordering.matrix.variable_names
    return {(names[u], names[v]) for u, v in ordering.variable_edges}


def test_criterion_1_worked_orderings(model3, model5):
    started = time.perf_counter()

    extended = causal_ordering(model5)
    assert named_clusters(extended) == {
        (frozenset({"d"}), 0),
        (frozenset({"b"}), 0),
        (frozenset({"a"}), 1),
        (frozenset({"m"}), 2),
    }
    assert named_edges(extended) == {("d", "a"), ("a", "m"), ("b", "m")}
    first_step = [c for c in extended.clusters if c.order == 0]
    assert [
        frozenset(model5.equation_labels[e] for e in c.equations) for c in first_step
    ] == [frozenset({"e1"}), frozenset({"e4"})]

    chain = causal_ordering(model3)
    assert named_clusters(chain) == {
        (frozenset({"d"}), 0),
        (frozenset({"a"}), 1),
        (frozenset({"m"}), 2),
    }
    assert named_edges(chain) == {("d", "a"), ("a", "m")}

    conclude(1, "worked orderings of the three- and four-equation models", started, 1.0)


def test_criterion_2_merged_form_loses_structure(model4):
    started = time.perf_counter()

    ordering = causal_ordering(model4)
    assert len(ordering.clusters) == 1
    assert ordering.clusters[0].degree == 3
    assert ordering.clusters[0].order == 0
    assert is_triangularizable(model4) is False

    conclude(2, "merged-row model collapses to one degree-3 cluster", started, 1.0)


def test_criterion_3_construction_exactness(xy_bbn, random_networks):
    started = time.perf_counter()

    assert check_equivalence(xy_bbn, bbn_to_sem(xy_bbn)) <= 1e-12
    for bbn in random_networks:
        assert check_equivalence(bbn, bbn_to_sem(bbn)) <= 1e-12

    conclude(3, "joint equivalence <= 1e-12 on 500 random networks", started, 30.0)


def test_criterion_4_structural_round_trip(xy_bbn, random_networks):
    started = time.perf_counter()

    assert roundtrip_check(xy_bbn)
    for bbn in random_networks:
        assert roundtrip_check(bbn) is True
        assert ordering_restores_dag(bbn)

    conclude(4, "round trip recovers the exact DAG on 500 random networks", started, 30.0)


def test_criterion_5_triangular_agreement_and_oracle():
    started = time.perf_counter()

    rng = random.Random(5150)
    for i in range(500):
        matrix = random_self_contained_system(
            rng, max_n=10, extra_prob=0.25, plant_cycle=i % 3 == 0
        )
        ordering = causal_ordering(matrix)
        assert is_triangularizable(matrix) == all(
            c.degree == 1 for c in ordering.clusters
        )
        expected_clusters, expected_edges = naive_causal_ordering(matrix)
        assert {
            (c.equations, c.variables, c.order) for c in ordering.clusters
        } == expected_clusters
        assert set(ordering.variable_edges) == expected_edges

    conclude(5, "triangularizability and brute-force agreement on 500 systems", started, 60.0)


def test_criterion_6_intervention_invariance(model3, model5):
    started = time.perf_counter()

    chain = causal_ordering(model3)
    extended = causal_ordering(model5)

    def affected_names(matrix, ordering, label):
        hit = affected_variables(ordering, matrix.equation_index(label))
        return {matrix.variable_names[v] for v in hit}

    assert affected_names(model3, chain, "e3") == {"m"}
    assert affected_names(model3, chain, "e1") == {"d", "a", "m"}
    assert affected_names(model5, extended, "e4") == {"b", "m"}

    rng = random.Random(606)
    for _ in range(200):
        bbn = random_bbn(rng, max_nodes=6, max_outcomes=4)
        node = rng.randrange(bbn.n)
        dist = random_distribution(rng, bbn.nodes[node].outcome_count)
        after = intervene_bbn(bbn, node, dist)
        deltas = compare_marginals(bbn, after)

        descendants = {node}
        grew = True
        while grew:
            grew = False
            for child in range(bbn.n):
                if child not in descendants and descendants & set(bbn.nodes[child].parents):
                    descendants.add(child)
                    grew = True
        for i in range(bbn.n):
            if i not in descendants:
                assert deltas[bbn.nodes[i].name] <= 1e-12

    conclude(6, "affected-variable cases and 200 non-descendant-invariant pairs", started, 30.0)


def test_criterion_7_sampling_consistency(xy_bbn):
    started = time.perf_counter()

    sem = bbn_to_sem(xy_bbn)
    draws = 200_000
    counts = sample(sem, seed=42, count=draws)
    for x in range(2):
        for y in range(2):
            exact = sem_joint(sem, (x, y))
            assert abs(counts.get((x, y), 0) / draws - exact) < 0.01
    assert sample(sem, seed=42, count=draws) == counts

    conclude(7, "200k seeded draws inside 0.01 per joint cell, reproducibly", started, 5.0)


def test_criterion_8_intersection_closure():
    started = time.perf_counter()

    rng = random.Random(808)
    for _ in range(200):
        matrix = random_self_contained_system(rng, max_n=8, extra_prob=0.3)
        family = brute_self_contained_subsets(matrix)
        for s1 in family:
            for s2 in family:
                meet = s1 & s2
                if meet:
                    assert meet in family

    conclude(8, "intersection closure over all subset pairs of 200 systems", started, 30.0)
