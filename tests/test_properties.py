"""Property tests for the structural invariants the library promises."""

import contextlib
import io
import json
import math
import random
import tempfile
from bisect import bisect_left
from collections import Counter
from itertools import product
from pathlib import Path
from struct import iter_unpack

import pytest
from hypothesis import example, given, settings, strategies as st

from causalstruct import (
    Bbn,
    BbnNode,
    CyclicStructureError,
    StructuralChange,
    StructureMatrix,
    ThresholdEquation,
    ThresholdEquationSystem,
    affected_variables,
    apply_change,
    bbn_to_sem,
    causal_ordering,
    check_equivalence,
    check_system,
    compare_marginals,
    evaluate,
    intervene_bbn,
    is_triangularizable,
    joint_probability,
    marginals,
    roundtrip_check,
    sample,
    sem_joint,
    sem_from_dict,
    sem_to_dict,
    sem_structure,
    triangularize,
)
from causalstruct.cli import main
from causalstruct.matching import maximum_matching
from causalstruct.sem import CHUNK, _lane_forward

from generators import fan_in_sem_doc, permute, random_bbn, subsystem
from oracles import (
    brute_self_contained_subsets,
    ordering_restores_dag,
    pivot_scan_triangularize,
    recursive_maximum_matching,
    reference_compare_marginals,
    reference_evaluate,
    reference_gap,
    reference_joint,
    reference_marginals,
    reference_report,
    reference_sample,
    reference_sem_joint,
)


@st.composite
def square_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rows = tuple(
        frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        for _ in range(n)
    )
    return StructureMatrix(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"e{i + 1}" for i in range(n)),
        rows,
    )


@st.composite
def self_contained_matrices(draw, max_n=6, plant_cycle=False):
    """Extra participations on a planted perfect matching; ``plant_cycle``
    wires two matched pairs into a two-cycle when n is at least 2."""
    n = draw(st.integers(1, max_n))
    matched = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        extras = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        rows.append({matched[i]} | extras)
    if plant_cycle and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i].add(matched[j])
        rows[j].add(matched[i])
    rows = [frozenset(row) for row in rows]
    return StructureMatrix(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"e{i + 1}" for i in range(n)),
        tuple(rows),
    )


@st.composite
def probability_rows(draw, k):
    weights = draw(
        st.lists(st.integers(0, 8), min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return tuple(w / total for w in weights)


@st.composite
def bbns(draw, max_nodes=4, max_outcomes=3):
    n = draw(st.integers(1, max_nodes))
    counts = [draw(st.integers(2, max_outcomes)) for _ in range(n)]
    nodes = []
    for i in range(n):
        parents = tuple(
            sorted(draw(st.sets(st.integers(0, i - 1), max_size=min(i, 2))))
        ) if i else ()
        row_count = math.prod(counts[p] for p in parents)
        cpt = tuple(draw(probability_rows(counts[i])) for _ in range(row_count))
        nodes.append(
            BbnNode(
                name=f"v{i}",
                outcomes=tuple(f"o{j}" for j in range(counts[i])),
                parents=parents,
                cpt=cpt,
            )
        )
    return Bbn(tuple(nodes))


@st.composite
def shuffled_bbns(draw, max_nodes=5, max_outcomes=3):
    """Networks whose node order need not be topological.

    A drawn permutation fixes the topological order, so a parent may have a
    larger index than its child, and parent lists come in drawn order.
    """
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations(range(n)))
    counts = [draw(st.integers(2, max_outcomes)) for _ in range(n)]
    nodes = [None] * n
    for position, i in enumerate(order):
        earlier = order[:position]
        parents = tuple(
            draw(st.lists(st.sampled_from(earlier), unique=True, max_size=2))
        ) if earlier else ()
        row_count = math.prod(counts[p] for p in parents)
        nodes[i] = BbnNode(
            name=f"v{i}",
            outcomes=tuple(f"o{j}" for j in range(counts[i])),
            parents=parents,
            cpt=tuple(draw(probability_rows(counts[i])) for _ in range(row_count)),
        )
    return Bbn(tuple(nodes))


@given(square_matrices(), st.data())
def test_self_containment_invariant_under_permutation(matrix, data):
    row_perm = data.draw(st.permutations(range(matrix.n)))
    col_perm = data.draw(st.permutations(range(matrix.n)))
    permuted = permute(matrix, row_perm, col_perm)
    subset = data.draw(
        st.sets(st.integers(0, matrix.n - 1), min_size=1, max_size=matrix.n)
    )
    mapped = {i for i, old in enumerate(row_perm) if old in subset}
    verdicts = [
        sub is not None and check_system(sub).self_contained
        for sub in (subsystem(matrix, subset), subsystem(permuted, mapped))
    ]
    assert verdicts[0] == verdicts[1]


@given(self_contained_matrices())
def test_intersections_of_self_contained_subsets_stay_self_contained(matrix):
    family = brute_self_contained_subsets(matrix)
    for s1 in family:
        for s2 in family:
            meet = s1 & s2
            if meet:
                assert meet in family


@given(self_contained_matrices())
def test_ordering_partitions_equations_and_variables(matrix):
    ordering = causal_ordering(matrix)
    assert sorted(v for c in ordering.clusters for v in c.variables) == list(range(matrix.n))
    assert sorted(e for c in ordering.clusters for e in c.equations) == list(range(matrix.n))


@given(self_contained_matrices(), st.data())
def test_ordering_determinism_under_permutation(matrix, data):
    row_perm = data.draw(st.permutations(range(matrix.n)))
    col_perm = data.draw(st.permutations(range(matrix.n)))
    original = causal_ordering(matrix)
    shuffled = causal_ordering(permute(matrix, row_perm, col_perm))

    def named_clusters(ordering):
        names = ordering.matrix.variable_names
        return {
            (frozenset(names[v] for v in c.variables), c.order)
            for c in ordering.clusters
        }

    def named_edges(ordering):
        names = ordering.matrix.variable_names
        return {(names[u], names[v]) for u, v in ordering.variable_edges}

    assert named_clusters(original) == named_clusters(shuffled)
    assert named_edges(original) == named_edges(shuffled)


@given(self_contained_matrices())
def test_triangularizable_iff_every_cluster_has_degree_one(matrix):
    ordering = causal_ordering(matrix)
    assert is_triangularizable(matrix) == all(c.degree == 1 for c in ordering.clusters)


any_self_contained = st.one_of(
    self_contained_matrices(max_n=8), self_contained_matrices(max_n=8, plant_cycle=True)
)


@given(any_self_contained, st.booleans(), st.data())
@settings(max_examples=300)
def test_triangularize_equals_the_pivot_scan(matrix, reorder, data):
    if reorder:
        matrix = permute(
            matrix,
            data.draw(st.permutations(range(matrix.n))),
            data.draw(st.permutations(range(matrix.n))),
        )
    row_perm, col_perm, stuck = pivot_scan_triangularize(matrix)
    if stuck:
        with pytest.raises(CyclicStructureError) as info:
            triangularize(matrix)
        assert info.value.remaining_equations == stuck
    else:
        result = triangularize(matrix)
        assert (result.row_perm, result.col_perm) == (row_perm, col_perm)


@given(any_self_contained)
def test_cyclic_witness_is_the_feedback_clusters_and_their_descendants(matrix):
    ordering = causal_ordering(matrix)
    below = {a: [] for a in range(len(ordering.clusters))}
    for a, b in ordering.cluster_edges:
        below[a].append(b)
    stalled = {ci for ci, cluster in enumerate(ordering.clusters) if cluster.degree > 1}
    frontier = list(stalled)
    while frontier:
        for b in below[frontier.pop()]:
            if b not in stalled:
                stalled.add(b)
                frontier.append(b)
    witness = frozenset(e for ci in stalled for e in ordering.clusters[ci].equations)
    if not witness:
        triangularize(matrix)
        return
    with pytest.raises(CyclicStructureError) as info:
        triangularize(matrix)
    assert info.value.remaining_equations == witness


@given(
    st.one_of(square_matrices(max_n=10), self_contained_matrices(max_n=10), any_self_contained),
    st.data(),
)
@settings(max_examples=400)
def test_matching_keeps_the_recursive_searchs_rows_and_violator(matrix, data):
    """Whatever columns the rows take, the same rows stay unmatched and the reach is the same."""
    rows = permute(matrix, data.draw(st.permutations(range(matrix.n))), range(matrix.n)).rows
    match, reach = maximum_matching(rows)
    expected_match, expected_reach = recursive_maximum_matching(rows)
    assert reach == expected_reach
    assert [j == -1 for j in match] == [j == -1 for j in expected_match]
    taken = [j for j in match if j != -1]
    assert len(set(taken)) == len(taken)
    assert all(j == -1 or j in row for row, j in zip(rows, match))


@given(bbns())
@settings(max_examples=50)
def test_joint_distribution_normalizes(bbn):
    total = math.fsum(joint_probability(bbn, a) for a in product(*map(range, bbn.outcome_counts())))
    assert abs(total - 1.0) <= 1e-9


@given(bbns())
@settings(max_examples=50)
def test_construction_is_distribution_exact(bbn):
    assert check_equivalence(bbn, bbn_to_sem(bbn)) <= 1e-12


@given(bbns())
@settings(max_examples=50)
def test_round_trip_restores_the_dag(bbn):
    assert roundtrip_check(bbn) is True
    assert ordering_restores_dag(bbn)


@given(bbns(), st.data())
@settings(max_examples=50)
def test_evaluate_is_bitwise_deterministic(bbn, data):
    sem = bbn_to_sem(bbn)
    latents = {
        v: data.draw(
            st.floats(min_value=1e-9, max_value=1.0, exclude_min=False),
            label=f"latent_{v}",
        )
        for v in range(sem.n)
    }
    assert evaluate(sem, latents) == evaluate(sem, latents)


@given(bbns(), st.data())
@settings(max_examples=50)
def test_intervention_is_idempotent(bbn, data):
    node = data.draw(st.integers(0, bbn.n - 1))
    k = bbn.nodes[node].outcome_count
    dist = data.draw(probability_rows(k))
    once = intervene_bbn(bbn, node, dist)
    assert intervene_bbn(once, node, dist) == once


@given(shuffled_bbns(), st.data())
@settings(max_examples=100, deadline=None)
def test_joint_enumeration_equals_the_per_assignment_reference(bbn, data):
    sem = bbn_to_sem(bbn)
    for assignment in product(*map(range, bbn.outcome_counts())):
        assert joint_probability(bbn, assignment) == reference_joint(bbn, assignment)
        assert sem_joint(sem, assignment) == reference_sem_joint(sem, assignment)
    assert marginals(bbn) == reference_marginals(bbn)
    assert check_equivalence(bbn, sem) == reference_gap(bbn, sem)
    node = data.draw(st.integers(0, bbn.n - 1))
    dist = data.draw(probability_rows(bbn.nodes[node].outcome_count))
    after = intervene_bbn(bbn, node, dist)
    # Commuting square: cutting x in the network and replacing x's equation
    # by [x] give the same structure, and the variables the intervention can
    # move are those downstream of x's equation.  Outside them the gap is
    # exactly 0; inside, it is the full enumeration's within 1e-12, since
    # only the moved variables' ancestors are enumerated.
    name = bbn.nodes[node].name
    structure = sem_structure(sem)
    assert sem_structure(bbn_to_sem(after)) == apply_change(
        structure, StructuralChange("replace_equation", f"f_{name}", (name,))
    )
    ordering = causal_ordering(structure)
    moved = affected_variables(ordering, node) if after.nodes[node] != bbn.nodes[node] else ()
    reference = reference_compare_marginals(bbn, after)
    deltas = compare_marginals(bbn, after)
    assert list(deltas) == list(reference)
    for v, label in enumerate(reference):
        if v in moved:
            assert deltas[label] == pytest.approx(reference[label], rel=0, abs=1e-12)
        else:
            assert deltas[label] == 0.0
    # An equation system with other parents leaves a real gap to measure.
    other = bbn_to_sem(after)
    assert check_equivalence(bbn, other) == reference_gap(bbn, other)


@given(shuffled_bbns(), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_one_sample_draw_is_evaluate_on_the_same_latents(bbn, seed):
    sem = bbn_to_sem(bbn)
    rng = random.Random(seed)
    latents = {v: 1.0 - rng.random() for v in range(sem.n)}
    assert sample(sem, seed, 1) == Counter({evaluate(sem, latents): 1})


# Cut points on and beside the edges of the 256 buckets of a latent's
# leading byte, where one byte settles a draw or just fails to.
BUCKET_EDGES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-53, 1 - 2.0**-53, 1.0]),
    st.integers(0, 256).map(lambda j: j / 256),
    st.builds(lambda j, to: math.nextafter(j / 256, to), st.integers(1, 255), st.sampled_from([0.0, 1.0])),
    st.floats(0.0, 1.0),
)


@st.composite
def edge_rows(draw, k):
    return (*sorted(draw(st.lists(BUCKET_EDGES, min_size=k - 1, max_size=k - 1))), 1.0)


@st.composite
def edge_systems(draw, max_nodes=4, max_outcomes=4, max_parents=2):
    """Equation systems of ``edge_rows``, variables in a drawn topological order."""
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations(range(n)))
    counts = [draw(st.integers(2, max_outcomes)) for _ in range(n)]
    equations = [None] * n
    for position, i in enumerate(order):
        earlier = order[:position]
        parents = tuple(draw(st.lists(st.sampled_from(earlier), unique=True, max_size=max_parents))) if earlier else ()
        rows = tuple(draw(edge_rows(counts[i])) for _ in range(math.prod(counts[p] for p in parents)))
        equations[i] = ThresholdEquation(parents, rows)
    return ThresholdEquationSystem(tuple(f"v{i}" for i in range(n)), tuple(equations))


def _wide_system(outcomes):
    """One variable of ``outcomes`` outcomes and a binary child of it."""
    cuts = tuple((j + 1) / outcomes for j in range(outcomes))
    return ThresholdEquationSystem(
        ("w", "b"),
        (ThresholdEquation((), (cuts,)), ThresholdEquation((0,), tuple((j / outcomes, 1.0) for j in range(outcomes)))),
    )


def _deep_system(parents):
    """``parents`` binary roots and one child whose equation has 2**parents rows."""
    rng = random.Random(parents)
    roots = [ThresholdEquation((), ((rng.random(), 1.0),)) for _ in range(parents)]
    child = ThresholdEquation(tuple(range(parents)), tuple((rng.random(), 1.0) for _ in range(2**parents)))
    return ThresholdEquationSystem(tuple(f"v{i}" for i in range(parents + 1)), (*roots, child))


def _crowded_system():
    """A binary root and a child of 100 outcomes whose two rows together cut
    the leading byte into over 128 classes, so the child's table keeps every
    second class start, and a merged class holds one of its row's ends."""
    def row(shift):
        return (*((j + shift) / 100 for j in range(99)), 1.0)

    return ThresholdEquationSystem(
        ("b", "w"), (ThresholdEquation((), ((0.5, 1.0),)), ThresholdEquation((0,), (row(0.37), row(0.61))))
    )


def _cut_at_every_256th():
    """One variable whose row has a cut point at every j / 256 up to 253 / 256,
    each on a bucket edge: 254 outcomes, the most the byte lanes hold."""
    return ThresholdEquationSystem(("r",), (ThresholdEquation((), ((*(j / 256 for j in range(1, 254)), 1.0),)),))


# A ternary child of three ternary roots: 27 rows whose classes merge.
_FAN_IN_27 = sem_from_dict(fan_in_sem_doc(random.Random(27), 3, 3))


def _bounds(rows):
    """The leading bytes where a row's count of bucket ends above m can change."""
    ends = [2**53 - int(c * 2**53) for row in rows for c in row[:-1]]
    return {h for d in ends for h in (d >> 45, -(-d >> 45)) if 0 < h < 256}


@given(edge_systems() | edge_systems(max_nodes=5, max_parents=4))
@example(_deep_system(8))  # 256 rows of one class: every latent counted exactly
@example(_deep_system(5))  # 32 rows, classes merged to fit
@example(_FAN_IN_27)  # 27 ternary rows, classes merged to fit
@example(_crowded_system())  # two rows, every second class start kept
@example(_cut_at_every_256th())  # 254 classes of one byte
@example(ThresholdEquationSystem(("r",), (ThresholdEquation((), ((0.0, 5e-324, 2.0**-53, 1 - 2.0**-53, 1.0),)),)))
@settings(max_examples=150, deadline=None)
def test_lane_tables_settle_exactly_the_classes_one_outcome_fills(sem):
    for v, _, classmap, table, _ in sem._lanes:
        rows = sem.equations[v].thresholds
        classes = classmap[-1] + 1
        # Outcomes only grow with m, so the first and last m of a class decide it.
        spans = [(classmap.index(c) << 45, (classmap.rindex(c) + 1 << 45) - 1) for c in range(classes)]
        for r, row in enumerate(rows):
            for c, span in enumerate(spans):
                low, high = (bisect_left(row, 1.0 - m / 2**53) for m in span)
                assert table[r * classes + c] == (low if low == high else 255), (v, r, c)
        assert len(table) == 256 and len(rows) * classes <= 256
        assert not any(table[len(rows) * classes:]), "padding"


@given(
    # Up to 4 parents of up to 4 outcomes give up to 256 rows, whose
    # classes merge to fit one table.
    edge_systems() | edge_systems(max_nodes=5, max_parents=4),
    st.randoms(use_true_random=False),
)
@example(_deep_system(8), random.Random(8))  # 256 rows of one class: every latent counted exactly
@example(_deep_system(5), random.Random(5))  # 32 rows, classes merged to fit
@example(_FAN_IN_27, random.Random(27))  # 27 ternary rows, classes merged to fit
@example(_crowded_system(), random.Random(9))  # two rows, every second class start kept
@settings(max_examples=150, deadline=None)
def test_lane_pass_equals_the_per_draw_reference_at_the_edges(sem, rng):
    # Latents 1 - m / 2**53 where some threshold flips or a bucket starts or ends.
    ends = {2**53 - int(c * 2**53) for eq in sem.equations for row in eq.thresholds for c in row}
    flips = [m for d in sorted(ends) for m in (d - 1, d) if 0 <= m < 2**53]
    edges = [m for h in range(256) for m in (h << 45, (h + 1 << 45) - 1)]
    k = rng.randint(1, 6)
    draws = [[rng.choice(rng.choice((flips, edges))) for _ in range(sem.n)] for _ in range(k)]
    # The words random() reads m from, with their unread low bits set or clear.
    raw = b"".join(
        (m >> 26 << 5 | 31 * (v % 2) | ((m & 2**26 - 1) << 6 | 63 * (v % 2)) << 32).to_bytes(8, "little")
        for latents in draws
        for v, m in enumerate(latents)
    )
    assert list(iter_unpack(f"{sem.n}B", _lane_forward(sem._lanes, raw, k))) == [
        reference_evaluate(sem, {v: 1.0 - m / 2**53 for v, m in enumerate(latents)}) for latents in draws
    ]


@given(
    shuffled_bbns().map(bbn_to_sem) | edge_systems(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
)
@settings(max_examples=60, deadline=None)
def test_sample_equals_the_per_draw_reference(sem, seed, count):
    # Same tallies, first drawn first.
    assert list(sample(sem, seed, count).items()) == list(
        reference_sample(sem, seed, count).items()
    )


@pytest.mark.parametrize(
    "sem, in_lanes",
    [(_wide_system(254), True), (_wide_system(255), False), (_wide_system(300), False),
     (_deep_system(8), True), (_deep_system(9), False), (_crowded_system(), True)],
    ids=["254-outcomes", "255-outcomes", "300-outcomes", "256-rows", "512-rows", "merged-classes"],
)
@pytest.mark.parametrize("count", [CHUNK // 4 - 1, CHUNK // 4 + 1, CHUNK + 1])
def test_sample_past_the_byte_lanes_equals_the_per_draw_reference(sem, in_lanes, count):
    # A variable of 255 or more outcomes, or an equation of more than 256
    # rows, takes the system out of the byte lanes and into evaluate's
    # pass, CHUNK // 4 draws at a time; 254 outcomes and 256 rows still fit.
    assert (sem._lanes is not None) == in_lanes
    assert list(sample(sem, 23, count).items()) == list(reference_sample(sem, 23, count).items())


# Counted contracts on the lane plan, without a clock: each variable holds
# one 256-entry table, so it costs the lane pass one class-map translate and
# one table translate per chunk whatever its row count, and only latents of
# a class that one of their row's ends splits are counted exactly.


def test_variables_of_few_rows_keep_exact_classes():
    # A row of O outcomes has at most 2(O - 1) bucket bounds, so R rows cut
    # the leading byte into C <= 2R(O - 1) + 1 classes, and R * C <= 256
    # holds for a binary variable of up to 11 rows and a ternary one of up
    # to 7: random networks reach 9 and 6.  Exact classes leave unsettled
    # only the buckets an end splits, one byte wide.
    taken = Counter()
    for seed in range(150):
        sem = bbn_to_sem(random_bbn(random.Random(seed), max_outcomes=3))
        for v, _, classmap, table, _ in sem._lanes:
            eq = sem.equations[v]
            rows = len(eq.thresholds)
            if rows * (2 * rows * (eq.outcome_count - 1) + 1) <= 256:
                starts = [h for h in range(256) if not h or classmap[h] != classmap[h - 1]]
                assert starts == [0, *sorted(_bounds(eq.thresholds))], (seed, v)
                classes = len(starts)
                unsettled = {i % classes for i in range(rows * classes) if table[i] == 255}
                assert all(classmap.count(c) == 1 for c in unsettled), (seed, v)
                taken[eq.outcome_count, rows] += 1
    assert {(2, 9), (3, 6)} <= set(taken)  # the widest of each


@pytest.mark.parametrize("parents", [0, 2, 4, 6, 8])
def test_each_variable_takes_one_table_pass_per_chunk(parents):
    # One class map and one 256-byte table per variable, for 1 to 256 rows.
    sem = _deep_system(parents)
    assert [len(lane) for lane in sem._lanes] == [5] * sem.n
    for v, _, classmap, table, rows in sem._lanes:
        assert (len(classmap), len(table), len(rows)) == (256, 256, len(sem.equations[v].thresholds))


@given(
    edge_systems()
    | edge_systems(max_nodes=5, max_parents=4)
    | st.integers(0, 2**32 - 1).map(lambda seed: bbn_to_sem(random_bbn(random.Random(seed), max_parents=4)))
)
@example(_deep_system(5))
@example(_FAN_IN_27)
@example(_crowded_system())
@settings(max_examples=150, deadline=None)
def test_unsettled_share_of_a_row_is_bounded_by_its_ends(sem):
    # Each unsettled class holds an end strictly inside, and an end lies
    # inside at most one class: a row's unsettled width is at most its end
    # count times the widest class.  With exact classes, each unsettled
    # class is the one byte an end off a bucket edge splits.
    for v, _, classmap, table, rows in sem._lanes:
        classes = classmap[-1] + 1
        widths = [classmap.count(c) for c in range(classes)]
        exact = len(rows) * (len(_bounds(sem.equations[v].thresholds)) + 1) <= 256
        for r, ends in enumerate(rows):
            unsettled = sum(w for c, w in enumerate(widths) if table[r * classes + c] == 255)
            assert unsettled <= len(ends) * max(widths), (v, r)
            if exact:
                assert unsettled <= sum(d % 2**45 != 0 for d in ends), (v, r)


@st.composite
def report_systems(draw, max_nodes=4):
    """Systems of 2 to 12 outcomes per variable, so labels of one or two
    widths, named by any characters UTF-8 can encode."""
    n = draw(st.integers(1, max_nodes))
    name = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    counts = [draw(st.integers(2, 12)) for _ in range(n)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    equations = []
    for v, k in enumerate(counts):
        parents = tuple(draw(st.lists(st.integers(0, v - 1), unique=True, max_size=2))) if v else ()
        rows = [(*sorted(rng.random() for _ in range(k - 1)), 1.0) for _ in range(math.prod(counts[p] for p in parents))]
        equations.append(ThresholdEquation(parents, tuple(rows)))
    return ThresholdEquationSystem(tuple(names), tuple(equations))


@given(report_systems(), st.integers(0, 2**32 - 1), st.integers(1, 600))
@example(ThresholdEquationSystem((), ()), 5, 3)
@example(_deep_system(9), 23, CHUNK // 4 + 1)  # an equation of 512 rows: the float pass
@settings(max_examples=40, deadline=None)
def test_sample_report_equals_the_row_by_row_reference(sem, seed, count):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "system.json"
        path.write_text(json.dumps(sem_to_dict(sem)), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["sample", str(path), "--seed", str(seed), "--count", str(count)]) == 0
    assert out.getvalue() == reference_report(sem, seed, count)


@given(shuffled_bbns(), st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_equals_the_per_draw_reference_on_thresholds(bbn, data):
    sem = bbn_to_sem(bbn)
    latents = {}
    for v, eq in enumerate(sem.equations):
        # Every positive threshold, 1.0 among them, sits on an interval's closed end.
        edges = sorted({c for row in eq.thresholds for c in row if c > 0.0})
        latents[v] = data.draw(
            st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_min=True),
            label=f"latent_{v}",
        )
    assert evaluate(sem, latents) == reference_evaluate(sem, latents)
