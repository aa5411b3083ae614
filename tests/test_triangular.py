import random
from collections import Counter

import pytest

from causalstruct import (
    CyclicStructureError,
    NotSelfContainedError,
    StructureMatrix,
    bbn_to_sem,
    causal_ordering,
    is_triangularizable,
    sem_structure,
    triangularize,
)

from generators import permute, random_bbn, random_self_contained_system


def assert_sound(matrix, result):
    """Permuted matrix must be lower-triangular with a full diagonal."""
    n = matrix.n
    for i in range(n):
        row = matrix.rows[result.row_perm[i]]
        assert result.col_perm[i] in row
        for j in range(i + 1, n):
            assert result.col_perm[j] not in row


class TestTriangularize:
    def test_extended_model(self, model5):
        result = triangularize(model5)
        determined = {
            model5.equation_labels[e]: model5.variable_names[v]
            for e, v in zip(result.row_perm, result.col_perm)
        }
        assert determined == {"e1": "d", "e4": "b", "e2": "a", "e3": "m"}
        assert_sound(model5, result)

    def test_feedback_pair_is_cyclic(self, feedback2):
        with pytest.raises(CyclicStructureError) as info:
            triangularize(feedback2)
        assert info.value.remaining_equations == frozenset({0, 1})

    def test_one_by_one(self):
        matrix = StructureMatrix(("x",), ("e1",), (frozenset({0}),))
        result = triangularize(matrix)
        assert result.row_perm == (0,)
        assert result.col_perm == (0,)

    def test_pivot_ties_go_to_lowest_equation_index(self, model5):
        # e1 and e4 are both single-variable rows at the first pivot
        assert triangularize(model5).row_perm[0] == 0

    def test_requires_self_containment(self):
        matrix = StructureMatrix(("x", "y"), ("e1", "e2"), (frozenset({0}), frozenset({0})))
        with pytest.raises(NotSelfContainedError):
            triangularize(matrix)
        with pytest.raises(NotSelfContainedError):
            is_triangularizable(matrix)

    @pytest.mark.parametrize("seed", range(30))
    def test_soundness_on_random_acyclic_systems(self, seed):
        matrix = random_self_contained_system(random.Random(seed), max_n=10, extra_prob=0.2)
        try:
            result = triangularize(matrix)
        except CyclicStructureError:
            return
        assert_sound(matrix, result)


class TestIsTriangularizable:
    def test_chain_model(self, model3):
        assert is_triangularizable(model3)

    def test_merged_row_model(self, model4):
        assert not is_triangularizable(model4)

    @pytest.mark.parametrize("seed", range(5))
    def test_network_derived_systems_always_triangularizable(self, seed):
        bbn = random_bbn(random.Random(seed))
        assert is_triangularizable(sem_structure(bbn_to_sem(bbn)))

    @pytest.mark.parametrize("seed", range(40))
    def test_agreement_with_cluster_degrees(self, seed):
        matrix = random_self_contained_system(
            random.Random(seed), max_n=10, plant_cycle=seed % 3 == 0
        )
        ordering = causal_ordering(matrix)
        assert is_triangularizable(matrix) == all(
            c.degree == 1 for c in ordering.clusters
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_invariant_under_permutation(self, seed):
        rng = random.Random(seed)
        matrix = random_self_contained_system(rng, max_n=9, plant_cycle=seed % 2 == 0)
        row_perm = list(range(matrix.n))
        col_perm = list(range(matrix.n))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        assert is_triangularizable(matrix) == is_triangularizable(
            permute(matrix, row_perm, col_perm)
        )


class TestDeterminedBy:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_unique_matching_and_ordering_edges(self, seed):
        matrix = random_self_contained_system(random.Random(seed), max_n=9, extra_prob=0.2)
        try:
            result = triangularize(matrix)
        except CyclicStructureError:
            return
        ordering = causal_ordering(matrix)

        # acyclic: each cluster pairs its single equation with its single variable
        expected_matching = {}
        for cluster in ordering.clusters:
            (e,) = cluster.equations
            (v,) = cluster.variables
            expected_matching[e] = v
        assert dict(zip(result.row_perm, result.col_perm)) == expected_matching

        # u -> v iff u participates in v's determining equation and u != v
        determines = dict(zip(result.col_perm, result.row_perm))
        expected_edges = {
            (u, v)
            for v, e in determines.items()
            for u in matrix.rows[e]
            if u != v
        }
        assert set(ordering.variable_edges) == expected_edges


def outcome(matrix):
    """``triangularize``'s result, or the equations it cannot place, and ``is_triangularizable``."""
    try:
        return triangularize(matrix), is_triangularizable(matrix)
    except CyclicStructureError as exc:
        return exc.remaining_equations, is_triangularizable(matrix)


def test_an_ordered_matrix_reads_off_what_the_precedence_path_gives():
    """Once ordered, a matrix reads both answers off its kept analysis; they
    equal what the precedence path gave the same matrix before, on random
    self-contained systems, each kind, acyclic and with feedback, seen often."""
    seen = Counter()
    for seed in range(500):
        rng = random.Random(seed)
        matrix = random_self_contained_system(rng, max_n=12, extra_prob=0.15, plant_cycle=seed % 3 == 0)
        before = outcome(matrix)
        causal_ordering(matrix)
        assert "_analysis" in vars(matrix)
        assert outcome(matrix) == before
        seen[before[1]] += 1
    assert min(seen[True], seen[False]) > 100
