import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from causalstruct import (
    Bbn,
    BbnNode,
    CycleError,
    FormatError,
    InvalidBbnError,
    ThresholdEquation,
    ThresholdEquationSystem,
    bbn_to_dict,
    bbn_to_sem,
    check_equivalence,
    evaluate,
    joint_probability,
    roundtrip_check,
    sample,
    sem_from_dict,
    sem_joint,
    sem_structure,
    sem_to_dict,
    validate,
)

from causalstruct.bbn import ROW_SUM_TOLERANCE
from causalstruct.cli import main
from causalstruct.sem import CHUNK

from generators import binary_chain_network, random_bbn
from oracles import ordering_restores_dag


@pytest.fixture
def xy_sem(xy_bbn):
    return bbn_to_sem(xy_bbn)


@st.composite
def near_tolerance_rows(draw):
    """A probability row whose exact sum lies within ``ROW_SUM_TOLERANCE`` of 1.

    One entry is shifted so the sum lands anywhere in the tolerance band,
    often at its very edge, where a plain left-to-right sum can fall outside.
    """
    weights = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=6))
    assume(any(weights))
    row = [w / math.fsum(weights) for w in weights]
    if draw(st.booleans()):  # few decimals, as in a hand-written file
        row = [round(p, draw(st.integers(2, 12))) for p in row]
    edge = draw(st.sampled_from([1.0, 1 - 1e-7]) | st.floats(0.0, 1.0))
    j = row.index(max(row))
    row[j] += 1.0 + draw(st.sampled_from([-1, 1])) * edge * ROW_SUM_TOLERANCE - math.fsum(row)
    assume(all(0.0 <= p <= 1.0 for p in row))
    assume(abs(math.fsum(row) - 1.0) <= ROW_SUM_TOLERANCE)
    return tuple(row)


class TestConstruction:
    def test_paper_network_thresholds(self, xy_sem):
        assert xy_sem.equations[0].thresholds == ((0.4, 1.0),)
        assert xy_sem.equations[1].thresholds == ((0.7, 1.0), (0.2, 1.0))
        assert xy_sem.equations[1].parents == (0,)

    def test_deterministic_row_keeps_empty_interval(self):
        bbn = Bbn(
            (BbnNode("x", ("t", "f"), (), ((0.0, 1.0),)),)
        )
        sem = bbn_to_sem(bbn)
        assert sem.equations[0].thresholds == ((0.0, 1.0),)
        # outcome 0 has an empty interval: no latent in (0,1] selects it
        for u in (1e-12, 0.5, 1.0):
            assert evaluate(sem, {0: u}) == (1,)

    def test_ternary_prior_cumulative(self):
        bbn = Bbn(
            (BbnNode("x", ("a", "b", "c"), (), ((0.2, 0.3, 0.5),)),)
        )
        sem = bbn_to_sem(bbn)
        row = sem.equations[0].thresholds[0]
        assert row == pytest.approx((0.2, 0.5, 1.0), abs=1e-15)
        assert row[-1] == 1.0

    def test_final_threshold_clamped_exactly(self):
        # nine entries of 1/9 accumulate to slightly off 1.0 before clamping
        bbn = Bbn(
            (BbnNode("x", tuple("abcdefghi"), (), ((1.0 / 9,) * 9,)),)
        )
        sem = bbn_to_sem(bbn)
        assert sem.equations[0].thresholds[0][-1] == 1.0

    def test_negative_zero_entries_give_positive_zero_thresholds(self, tmp_path, capsys):
        # validate accepts -0.0, but no threshold may carry its sign into a file.
        bbn = Bbn((BbnNode("x", ("a", "b", "c"), (), ((-0.0, -0.0, 1.0),)),))
        assert validate(bbn).valid
        (thresholds,) = bbn_to_sem(bbn).equations[0].thresholds
        assert all(math.copysign(1.0, t) == 1.0 for t in thresholds)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(bbn_to_dict(bbn)), encoding="utf-8")
        assert main(["to-sem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "-0.0" in path.read_text(encoding="utf-8") and "-0.0" not in out

    def test_invalid_network_rejected(self):
        bbn = Bbn((BbnNode("x", ("t", "f"), (), ((0.7, 0.2),)),))
        with pytest.raises(InvalidBbnError):
            bbn_to_sem(bbn)

    @given(near_tolerance_rows())
    @example((0.236061891794, 0.284752633168, 0.272273496625, 0.007390649651, 0.199521329762))
    @settings(max_examples=300, deadline=None)
    def test_every_row_validate_accepts_converts(self, row):
        # The example's plain left-to-right sum is 1.000000001, past the
        # tolerance, although its exact sum is within it.
        bbn = Bbn((BbnNode("x", tuple(f"o{j}" for j in range(len(row))), (), (row,)),))
        assert validate(bbn).valid
        (thresholds,) = bbn_to_sem(bbn).equations[0].thresholds
        assert thresholds[-1] == 1.0
        sums = tuple(accumulate(row, initial=0.0))[1:]
        clamped = tuple(min(c, 1.0) for c in sums[:-1]) + (1.0,)
        assert repr(thresholds) == repr(clamped)

    def test_bad_final_threshold_rejected(self):
        with pytest.raises(ValueError, match="ends at"):
            ThresholdEquation(parents=(), thresholds=((0.4, 0.9),))

    def test_decreasing_row_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ThresholdEquation(parents=(), thresholds=((0.5, 0.4, 1.0),))

    @pytest.mark.parametrize("row", [(0.5, 1.0000000005, 1.0), (0.5, 1.0000000005, 1.0000000008)])
    def test_overshoot_within_tolerance_is_clamped_wherever_it_sits(self, row):
        equation = ThresholdEquation(parents=(), thresholds=(row,))
        assert equation.thresholds == ((0.5, 1.0, 1.0),)

    @pytest.mark.parametrize(
        "names, targets, message",
        [
            (("x", "y"), (0,), "need exactly one equation per variable"),
            (("x", "x"), (0, 1), "variable names must be distinct"),
        ],
    )
    def test_system_refusals(self, names, targets, message):
        # ``targets`` only counts the equations: equation i targets variable i.
        equations = tuple(ThresholdEquation((), ((0.5, 1.0),)) for _ in targets)
        with pytest.raises(ValueError, match=message):
            ThresholdEquationSystem(names, equations)

    def test_parent_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="bad parent index 1"):
            ThresholdEquationSystem(("x",), (ThresholdEquation((1,), ((0.5, 1.0),)),))

    def test_entry_past_the_tolerance_is_named(self):
        with pytest.raises(ValueError, match="entry 1.5 above 1"):
            ThresholdEquation(parents=(), thresholds=((0.5, 1.5, 1.0),))


class TestEvaluate:
    def test_both_latents_low(self, xy_sem):
        assert evaluate(xy_sem, {0: 0.3, 1: 0.65}) == (0, 0)

    def test_boundary_is_right_closed(self, xy_sem):
        # 0.41 > 0.4 pushes x to its second outcome; y's row for that case
        # has threshold 0.2 and the latent sits exactly on it
        assert evaluate(xy_sem, {0: 0.41, 1: 0.2}) == (1, 0)

    def test_all_latents_one_take_last_nonempty_interval(self):
        bbn = Bbn(
            (
                BbnNode("x", ("a", "b", "c"), (), ((0.3, 0.7, 0.0),)),
                BbnNode("y", ("t", "f"), (0,), ((0.5, 0.5), (1.0, 0.0), (0.25, 0.75))),
            )
        )
        sem = bbn_to_sem(bbn)
        got = evaluate(sem, {0: 1.0, 1: 1.0})
        # x: last non-empty interval is outcome 1 (outcome 2 has length 0);
        # y given x=b: row (1.0, 1.0) ends its mass at outcome 0
        assert got == (1, 0)

    def test_latent_out_of_range(self, xy_sem):
        with pytest.raises(ValueError, match="outside"):
            evaluate(xy_sem, {0: 0.0, 1: 0.5})
        with pytest.raises(ValueError, match="outside"):
            evaluate(xy_sem, {0: 0.5, 1: 1.5})

    def test_deterministic(self, xy_sem):
        latents = {0: 0.123456, 1: 0.654321}
        assert evaluate(xy_sem, latents) == evaluate(xy_sem, latents)

    def test_cyclic_system_rejected(self):
        sem = ThresholdEquationSystem(
            ("x", "y"),
            (
                ThresholdEquation((1,), ((0.5, 1.0), (0.5, 1.0))),
                ThresholdEquation((0,), ((0.5, 1.0), (0.5, 1.0))),
            ),
        )
        with pytest.raises(CycleError):
            evaluate(sem, {0: 0.5, 1: 0.5})


class TestSemJoint:
    def test_matches_network_values(self, xy_sem):
        assert sem_joint(xy_sem, (0, 0)) == pytest.approx(0.28, abs=1e-15)
        assert sem_joint(xy_sem, (1, 0)) == pytest.approx(0.12, abs=1e-15)

    def test_normalization(self, xy_sem):
        total = math.fsum(
            sem_joint(xy_sem, (i, j)) for i in range(2) for j in range(2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_partial_assignment_rejected(self, xy_sem):
        with pytest.raises(ValueError):
            sem_joint(xy_sem, (0,))

    @pytest.mark.parametrize("assignment", [(-1, 0), (0, 2)])
    def test_outcome_out_of_range_rejected(self, xy_sem, assignment):
        with pytest.raises(ValueError, match="out of range"):
            sem_joint(xy_sem, assignment)

    def test_interval_lengths_reproduce_conditional_entries(self):
        rng = random.Random(11)
        for _ in range(20):
            bbn = random_bbn(rng)
            sem = bbn_to_sem(bbn)
            for node, eq in zip(bbn.nodes, sem.equations):
                for cpt_row, thr_row in zip(node.cpt, eq.thresholds):
                    previous = 0.0
                    for p, c in zip(cpt_row, thr_row):
                        assert c - previous == pytest.approx(p, abs=1e-12)
                        previous = c


class TestCheckEquivalence:
    def test_own_construction_is_equivalent(self, xy_bbn, xy_sem):
        assert check_equivalence(xy_bbn, xy_sem) <= 1e-12

    def test_perturbed_threshold_detected(self, xy_bbn, xy_sem):
        perturbed = ThresholdEquationSystem(
            xy_sem.variable_names,
            (
                xy_sem.equations[0],
                ThresholdEquation((0,), ((0.71, 1.0), (0.2, 1.0))),
            ),
        )
        deviation = check_equivalence(xy_bbn, perturbed)
        assert deviation == pytest.approx(abs(0.4 * 0.71 - 0.4 * 0.70), abs=1e-12)
        assert deviation == pytest.approx(0.004, abs=1e-12)

    def test_single_uniform_binary_node_exact(self):
        bbn = Bbn((BbnNode("x", ("t", "f"), (), ((0.5, 0.5),)),))
        assert check_equivalence(bbn, bbn_to_sem(bbn)) == 0.0

    def test_configuration_bound(self):
        nodes = tuple(
            BbnNode(f"n{i}", ("a", "b", "c", "d"), (), ((0.25,) * 4,))
            for i in range(11)  # 4^11 > 2^20
        )
        bbn = Bbn(nodes)
        with pytest.raises(ValueError, match="enumeration bound"):
            check_equivalence(bbn, bbn_to_sem(bbn))

    def test_mismatched_names_rejected(self, xy_bbn):
        other = Bbn(
            (
                BbnNode("u", ("t", "f"), (), ((0.4, 0.6),)),
                BbnNode("y", ("t", "f"), (0,), ((0.7, 0.3), (0.2, 0.8))),
            )
        )
        with pytest.raises(ValueError, match="different variables"):
            check_equivalence(xy_bbn, bbn_to_sem(other))

    def test_mismatched_outcome_counts_rejected(self, xy_bbn):
        other = Bbn(
            (
                BbnNode("x", ("a", "b", "c"), (), ((0.2, 0.3, 0.5),)),
                BbnNode("y", ("t", "f"), (0,), ((0.7, 0.3),) * 3),
            )
        )
        with pytest.raises(ValueError, match="disagree on outcome counts"):
            check_equivalence(xy_bbn, bbn_to_sem(other))


def binary_ring(rows):
    """Variable i's one parent is variable i - 1, and variable 0's is the last."""
    n = len(rows)
    return ThresholdEquationSystem(
        tuple(f"x{i}" for i in range(n)),
        tuple(ThresholdEquation(((i - 1) % n,), table) for i, table in enumerate(rows)),
    )


class TestCyclicSystemHasNoJoint:
    """Cyclic equations define no joint, so both joint operations refuse them.

    The product of a cyclic system's interval lengths is the chance that an
    assignment solves the equations, not a probability: the loop's four
    products sum to 0.75.
    """

    SELF = binary_ring([((0.3, 1.0), (0.8, 1.0))])  # a variable listed among its own parents: a cycle of one
    LOOP = binary_ring([((0.3, 1.0), (0.8, 1.0)), ((0.6, 1.0), (0.1, 1.0))])
    RING = binary_ring([((0.3, 1.0), (0.8, 1.0)), ((0.6, 1.0), (0.1, 1.0)), ((0.5, 1.0), (0.2, 1.0))])
    CASES = pytest.mark.parametrize(
        "sem, members", [(SELF, (0,)), (LOOP, (0, 1)), (RING, (0, 1, 2))], ids=["self", "loop", "ring"]
    )

    @CASES
    def test_sem_joint_refuses(self, sem, members):
        with pytest.raises(CycleError) as info:
            sem_joint(sem, (0,) * sem.n)
        assert info.value.members == members

    @CASES
    def test_evaluate_refuses(self, sem, members):
        with pytest.raises(CycleError) as info:
            evaluate(sem, dict.fromkeys(range(sem.n), 0.5))
        assert info.value.members == members

    @CASES
    def test_check_equivalence_refuses(self, sem, members):
        chain = Bbn(
            tuple(
                BbnNode(f"x{i}", ("t", "f"), (i - 1,) if i else (), ((0.5, 0.5),) * (2 if i else 1))
                for i in range(sem.n)
            )
        )
        with pytest.raises(CycleError) as info:
            check_equivalence(chain, sem)
        assert info.value.members == members


class TestSample:
    def test_same_seed_same_tallies(self, xy_sem):
        a = sample(xy_sem, seed=7, count=2000)
        b = sample(xy_sem, seed=7, count=2000)
        assert a == b

    def test_single_draw(self, xy_sem):
        counts = sample(xy_sem, seed=1, count=1)
        assert sum(counts.values()) == 1
        assert len(counts) == 1

    def test_empty_system_draws_the_empty_assignment(self):
        empty = sem_from_dict({"equations": []})
        assert sample(empty, seed=3, count=CHUNK + 1) == Counter({(): CHUNK + 1})
        assert evaluate(empty, {}) == ()

    def test_memory_stays_flat_in_the_count(self, xy_sem):
        # Draws are evaluated a chunk at a time and xy has 4 assignments,
        # so the transient memory of a long run is that of a short one.
        def peak(count):
            tracemalloc.start()
            try:
                sample(xy_sem, seed=9, count=count)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.5 * peak(2 * CHUNK)

    def test_transient_memory_per_latent(self):
        # A chunk keeps each latent as 8 bytes of generator output and one
        # value byte, not as a float object: transient memory, the peak
        # past what the returned tally holds, stays within 16 bytes a latent.
        n = 2000
        chain = bbn_to_sem(binary_chain_network(n))
        tracemalloc.start()
        try:
            tally = sample(chain, seed=11, count=CHUNK)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(tally.values()) == CHUNK
        assert (peak - retained) / (n * CHUNK) <= 16

    def test_getrandbits_words_are_the_words_random_reads(self):
        # sample reads its latents from getrandbits: the little-endian 32-bit
        # words of getrandbits(64 * K) are those K calls of random() read, two
        # per call, and m's leading byte is the top byte of the first word.
        K = 1000
        bits, floats = random.Random(17), random.Random(17)
        raw = bits.getrandbits(64 * K).to_bytes(8 * K, "little")
        words = [int.from_bytes(raw[i:i + 4], "little") for i in range(0, 8 * K, 4)]
        ms = [(a >> 5) << 26 | b >> 6 for a, b in zip(words[::2], words[1::2])]
        assert [m / 2**53 for m in ms] == [floats.random() for _ in range(K)], (
            "getrandbits no longer yields the words random() reads, in the same order"
        )
        assert bits.random() == floats.random()
        assert [m >> 45 for m in ms] == list(raw[3::8])

    def test_count_must_be_positive(self, xy_sem):
        with pytest.raises(ValueError):
            sample(xy_sem, seed=1, count=0)

    def test_empirical_matches_exact(self, xy_sem):
        draws = 200_000
        counts = sample(xy_sem, seed=42, count=draws)
        assert counts[(0, 0)] / draws == pytest.approx(0.28, abs=0.01)

    def test_total_variation_small(self):
        rng = random.Random(5)
        bbn = random_bbn(rng, max_nodes=3, max_outcomes=4)  # at most 64 outcomes
        sem = bbn_to_sem(bbn)
        draws = 200_000
        counts = sample(sem, seed=99, count=draws)
        outcome_space = [range(k) for k in sem.outcome_counts()]
        import itertools

        tv = 0.5 * math.fsum(
            abs(counts.get(a, 0) / draws - sem_joint(sem, a))
            for a in itertools.product(*outcome_space)
        )
        assert tv < 0.02


class TestSemStructure:
    def test_paper_structure(self, xy_sem):
        matrix = sem_structure(xy_sem)
        assert matrix.rows == (frozenset({0}), frozenset({0, 1}))
        assert matrix.variable_names == ("x", "y")

    def test_parentless_nodes_give_identity_pattern(self):
        bbn = Bbn(
            tuple(BbnNode(f"n{i}", ("t", "f"), (), ((0.5, 0.5),)) for i in range(3))
        )
        matrix = sem_structure(bbn_to_sem(bbn))
        assert matrix.rows == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_diamond_rows(self):
        bbn = Bbn(
            (
                BbnNode("a", ("t", "f"), (), ((0.5, 0.5),)),
                BbnNode("b", ("t", "f"), (0,), ((0.5, 0.5),) * 2),
                BbnNode("c", ("t", "f"), (0,), ((0.5, 0.5),) * 2),
                BbnNode("d", ("t", "f"), (1, 2), ((0.5, 0.5),) * 4),
            )
        )
        matrix = sem_structure(bbn_to_sem(bbn))
        assert matrix.rows == (
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2, 3}),
        )


class TestRoundTrip:
    def test_paper_network(self, xy_bbn):
        assert roundtrip_check(xy_bbn)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_networks(self, seed):
        bbn = random_bbn(random.Random(seed))
        assert roundtrip_check(bbn) is True
        assert ordering_restores_dag(bbn)

    def test_invalid_network_rejected(self):
        bbn = Bbn((BbnNode("x", ("t", "f"), (), ((0.7, 0.2),)),))
        with pytest.raises(InvalidBbnError):
            roundtrip_check(bbn)


class TestFileFormat:
    def test_round_trip(self, xy_sem):
        doc = sem_to_dict(xy_sem)
        again = sem_from_dict(json.loads(json.dumps(doc)))
        assert again == xy_sem
        assert sem_to_dict(again) == doc

    def test_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(10):
            sem = bbn_to_sem(random_bbn(rng))
            doc = sem_to_dict(sem)
            again = sem_from_dict(json.loads(json.dumps(doc)))
            assert again == sem
            assert sem_to_dict(again) == doc

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            sem_from_dict({"equations": [], "comment": "hi"})

    def test_unknown_parent_named(self):
        doc = {
            "equations": [
                {"target": "x", "parents": ["nope"], "thresholds": [[0.5, 1.0]]}
            ]
        }
        with pytest.raises(FormatError, match="'x'.*'nope'"):
            sem_from_dict(doc)

    def test_bad_row_named(self):
        doc = {
            "equations": [
                {"target": "x", "parents": [], "thresholds": [[0.9, 0.5]]}
            ]
        }
        with pytest.raises(FormatError, match="'x'"):
            sem_from_dict(doc)

    def test_row_count_checked_against_parents(self):
        doc = {
            "equations": [
                {"target": "x", "parents": [], "thresholds": [[0.4, 1.0]]},
                {"target": "y", "parents": ["x"], "thresholds": [[0.7, 1.0]]},
            ]
        }
        with pytest.raises(FormatError, match="needs 2 threshold rows"):
            sem_from_dict(doc)

    def test_repeated_parent_rejected(self):
        # A network with the same arcs fails validation as duplicate-parent.
        doc = {
            "equations": [
                {"target": "x", "parents": [], "thresholds": [[0.5, 1.0]]},
                {"target": "y", "parents": ["x", "x"], "thresholds": [[0.5, 1.0]] * 4},
            ]
        }
        with pytest.raises(FormatError, match="'y' repeats a parent"):
            sem_from_dict(doc)

    def test_empty_target_rejected(self):
        doc = {"equations": [{"target": "", "parents": [], "thresholds": [[0.5, 1.0]]}]}
        with pytest.raises(FormatError, match="non-empty"):
            sem_from_dict(doc)

