import json
import math
import random
import sys
from itertools import product

import pytest

import causalstruct.bbn as bbn_module
from causalstruct import (
    Bbn,
    BbnNode,
    CycleError,
    FormatError,
    InvalidBbnError,
    bbn_from_dict,
    bbn_to_dict,
    bbn_to_dot,
    bbn_to_sem,
    check_equivalence,
    compare_marginals,
    joint_probability,
    marginals,
    roundtrip_check,
    validate,
)
from causalstruct.graphs import topological_order

from generators import binary_chain_network, independent_binary_network, random_bbn


def parents_first(bbn):
    return topological_order([node.parents for node in bbn.nodes])


def binary(name, parents, rows):
    return BbnNode(name=name, outcomes=("t", "f"), parents=parents, cpt=rows)


@pytest.fixture
def two_node_cycle():
    return Bbn(
        (
            binary("x", (1,), ((0.5, 0.5), (0.5, 0.5))),
            binary("y", (0,), ((0.5, 0.5), (0.5, 0.5))),
        )
    )


@pytest.fixture
def diamond():
    rng = random.Random(4)
    rows = lambda k: tuple(  # noqa: E731
        tuple(v / sum(ws) for v in ws)
        for ws in [[rng.random() + 0.1 for _ in range(2)] for _ in range(k)]
    )
    return Bbn(
        (
            binary("a", (), rows(1)),
            binary("b", (0,), rows(2)),
            binary("c", (0,), rows(2)),
            binary("d", (1, 2), rows(4)),
        )
    )


class TestValidate:
    def test_paper_network_is_valid(self, xy_bbn):
        report = validate(xy_bbn)
        assert report.valid
        assert report.describe() == "valid"

    def test_cycle_witness(self, two_node_cycle):
        report = validate(two_node_cycle)
        assert not report.valid
        cycles = [issue.detail for issue in report.issues if issue.kind == "cycle"]
        assert cycles == ["cycle through x -> y"]

    def test_second_call_returns_an_equal_report(self, two_node_cycle):
        first = validate(two_node_cycle)
        assert validate(two_node_cycle) == first
        assert validate(Bbn(two_node_cycle.nodes)) == first

    def test_row_sum_violation_amount(self):
        bbn = Bbn((binary("x", (), ((0.7, 0.2),)),))
        report = validate(bbn)
        (issue,) = report.issues
        assert issue.kind == "row-sum"
        assert report.describe() == "row-sum [x]: row 0 sums to 0.8999999999999999"

    def test_row_count_mismatch(self):
        bbn = Bbn(
            (
                binary("x", (), ((0.4, 0.6),)),
                binary("y", (0,), ((0.7, 0.3),)),  # needs two rows
            )
        )
        report = validate(bbn)
        assert any(issue.kind == "row-count" for issue in report.issues)

    def test_entry_out_of_range(self):
        # A row too large to sum as a float is reported by its entries alone.
        big = sys.float_info.max
        for row in ((1.4, -0.4), (1e308, 1e308), (-1e308, -1e308), (big, big)):
            report = validate(Bbn((binary("x", (), (row,)),)))
            assert report.describe() == "entry-range [x]: row 0 has entries outside [0, 1]"

    def test_duplicate_parent(self):
        bbn = Bbn(
            (
                binary("x", (), ((0.4, 0.6),)),
                binary("y", (0, 0), ((0.5, 0.5),) * 4),
            )
        )
        assert any(issue.kind == "duplicate-parent" for issue in validate(bbn).issues)

    def test_valid_iff_topological_order_succeeds_and_tables_hold(self, two_node_cycle, xy_bbn):
        with pytest.raises(CycleError):
            parents_first(two_node_cycle)
        assert parents_first(xy_bbn) == [0, 1]


class TestJointProbability:
    def test_both_true(self, xy_bbn):
        assert joint_probability(xy_bbn, (0, 0)) == pytest.approx(0.28, abs=1e-15)

    def test_both_false(self, xy_bbn):
        assert joint_probability(xy_bbn, (1, 1)) == pytest.approx(0.48, abs=1e-15)

    def test_normalization(self, diamond):
        total = math.fsum(joint_probability(diamond, a) for a in product(*map(range, diamond.outcome_counts())))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_partial_assignment_rejected(self, xy_bbn):
        with pytest.raises(ValueError):
            joint_probability(xy_bbn, (0,))

    @pytest.mark.parametrize("assignment", [(-1, 0), (0, 2)])
    def test_outcome_out_of_range_rejected(self, xy_bbn, assignment):
        with pytest.raises(ValueError, match="out of range"):
            joint_probability(xy_bbn, assignment)

    def test_table_that_does_not_fit_is_refused(self):
        bbn = Bbn((binary("x", (), ((0.4, 0.6),)), binary("y", (0,), ((0.7, 0.3),))))
        with pytest.raises(InvalidBbnError, match="row-count"):
            joint_probability(bbn, (0, 0))
        with pytest.raises(InvalidBbnError, match="row-count"):
            marginals(bbn)

    def test_invariant_under_outcome_relabeling(self, xy_bbn):
        relabeled = Bbn(
            tuple(
                BbnNode(
                    name=node.name,
                    outcomes=tuple(f"label_{o}" for o in node.outcomes),
                    parents=node.parents,
                    cpt=node.cpt,
                )
                for node in xy_bbn.nodes
            )
        )
        for a in product(*map(range, xy_bbn.outcome_counts())):
            assert joint_probability(xy_bbn, a) == joint_probability(relabeled, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks_normalize(self, seed):
        bbn = random_bbn(random.Random(seed))
        total = math.fsum(joint_probability(bbn, a) for a in product(*map(range, bbn.outcome_counts())))
        assert total == pytest.approx(1.0, abs=1e-9)


def _valid_twin(bbn):
    """A valid network over the same names and outcomes: no arcs, uniform rows."""
    return Bbn(
        tuple(
            BbnNode(node.name, node.outcomes, (), ((1 / node.outcome_count,) * node.outcome_count,))
            for node in bbn.nodes
        )
    )


# Every probability operation on a network, given the network.
PROBABILITY_OPERATIONS = {
    "joint_probability": lambda bbn: joint_probability(bbn, (0,) * bbn.n),
    "marginals": marginals,
    "check_equivalence": lambda bbn: check_equivalence(bbn, bbn_to_sem(_valid_twin(bbn))),
    "compare_marginals before": lambda bbn: compare_marginals(bbn, _valid_twin(bbn)),
    "compare_marginals after": lambda bbn: compare_marginals(_valid_twin(bbn), bbn),
    "compare_marginals unchanged": lambda bbn: compare_marginals(bbn, bbn),
    "bbn_to_sem": bbn_to_sem,
    "roundtrip_check": roundtrip_check,
}

INVALID_NETWORKS = {
    "cycle": Bbn(
        (
            binary("x", (1,), ((0.5, 0.5), (0.5, 0.5))),
            binary("y", (0,), ((0.5, 0.5), (0.5, 0.5))),
        )
    ),
    "row-sum": Bbn((binary("x", (), ((0.9, 0.9),)),)),
}


class TestValidityGate:
    """Each probability operation refuses exactly the networks ``validate`` refuses."""

    @pytest.mark.parametrize("operation", sorted(PROBABILITY_OPERATIONS))
    @pytest.mark.parametrize("kind", sorted(INVALID_NETWORKS))
    def test_invalid_network_is_refused_with_its_report(self, operation, kind):
        bbn = INVALID_NETWORKS[kind]
        with pytest.raises(InvalidBbnError, match=kind) as caught:
            PROBABILITY_OPERATIONS[operation](bbn)
        assert caught.value.report == validate(bbn)
        assert kind in {issue.kind for issue in caught.value.report.issues}

    @pytest.mark.parametrize("operation", sorted(PROBABILITY_OPERATIONS))
    def test_valid_network_passes(self, operation, xy_bbn):
        PROBABILITY_OPERATIONS[operation](xy_bbn)

    def test_check_equivalence_refuses_before_comparing_names(self):
        other = bbn_to_sem(Bbn((binary("z", (), ((0.5, 0.5),)),)))
        with pytest.raises(InvalidBbnError, match="row-sum"):
            check_equivalence(INVALID_NETWORKS["row-sum"], other)

    def test_compare_marginals_refuses_before_the_enumeration_bound(self):
        # The last node's ancestors span 2**21 configurations, past the bound.
        chain = binary_chain_network(21)
        last = chain.nodes[20]
        broken_last = BbnNode(last.name, last.outcomes, last.parents, ((0.9, 0.9),) * 2)
        broken = Bbn((*chain.nodes[:20], broken_last))
        with pytest.raises(InvalidBbnError, match="row-sum"):
            compare_marginals(broken, chain)


class TestTopologicalOrder:
    def test_chain(self, xy_bbn):
        assert parents_first(xy_bbn) == [0, 1]

    def test_isolated_nodes_in_index_order(self):
        bbn = Bbn(tuple(binary(f"n{i}", (), ((0.5, 0.5),)) for i in range(3)))
        assert parents_first(bbn) == [0, 1, 2]

    def test_diamond_tie_break(self, diamond):
        assert parents_first(diamond) == [0, 1, 2, 3]


class TestRowIndexing:
    def test_first_parent_most_significant(self):
        # d has parents (b, c) with 2 and 3 outcomes: row = 3*b + c, and
        # d's second outcome has probability r / 8 in row r.
        b = BbnNode("b", ("0", "1"), (), ((0.5, 0.5),))
        c = BbnNode("c", ("0", "1", "2"), (), ((0.25, 0.25, 0.5),))
        rows = tuple((1.0 - r / 8, r / 8) for r in range(6))
        d = BbnNode("d", ("0", "1"), (0, 1), rows)
        bbn = Bbn((b, c, d))
        for bi in range(2):
            for ci in range(3):
                prior = 0.5 * c.cpt[0][ci]
                assert joint_probability(bbn, (bi, ci, 1)) == prior * (3 * bi + ci) / 8


class TestFileFormat:
    def test_round_trip(self, xy_bbn):
        doc = bbn_to_dict(xy_bbn)
        again = bbn_from_dict(json.loads(json.dumps(doc)))
        assert again == xy_bbn
        assert bbn_to_dict(again) == doc

    def test_random_round_trips(self):
        rng = random.Random(3)
        for _ in range(10):
            bbn = random_bbn(rng)
            assert bbn_from_dict(bbn_to_dict(bbn)) == bbn

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            bbn_from_dict({"nodes": [], "version": 2})

    def test_parse_error_names_node(self):
        doc = {
            "nodes": [
                {"name": "x", "outcomes": ["t", "f"], "parents": [], "cpt": [[0.4, 0.6]]},
                {"name": "y", "outcomes": ["t", "f"], "parents": ["q"], "cpt": [[1, 0]]},
            ]
        }
        with pytest.raises(FormatError, match="'y'.*'q'"):
            bbn_from_dict(doc)

    def test_parse_error_names_row(self):
        doc = {
            "nodes": [
                {"name": "x", "outcomes": ["t", "f"], "parents": [], "cpt": [[0.4, "no"]]}
            ]
        }
        with pytest.raises(FormatError, match="'x'.*row 0"):
            bbn_from_dict(doc)

    def test_duplicate_names_rejected_at_construction(self):
        with pytest.raises(ValueError, match="node names must be distinct"):
            Bbn((binary("x", (), ((0.4, 0.6),)),) * 2)

    def test_unknown_parent_rejected_at_construction(self):
        with pytest.raises(ValueError, match="out of range"):
            Bbn((binary("x", (5,), ((0.4, 0.6),) * 2),))

    def test_duplicate_outcome_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate outcome"):
            BbnNode("x", ("t", "t"), (), ((0.5, 0.5),))

    def test_single_outcome_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            BbnNode("x", ("t",), (), ((1.0,),))


def test_marginals_by_enumeration(xy_bbn):
    margs = marginals(xy_bbn)
    assert margs[0] == pytest.approx([0.4, 0.6], abs=1e-12)
    assert margs[1][0] == pytest.approx(0.4 * 0.7 + 0.6 * 0.2, abs=1e-12)


def test_dot_lists_edges(xy_bbn):
    text = bbn_to_dot(xy_bbn)
    assert "  x -> y;" in text.splitlines()


def test_dot_quotes_a_name_ending_in_a_newline():
    bbn = Bbn((binary("a", (), ((0.5, 0.5),)), binary("a\n", (0,), ((1.0, 0.0), (0.0, 1.0)))))
    assert bbn_to_dot(bbn) == 'digraph bbn {\n  a;\n  "a\n";\n  a -> "a\n";\n}\n'


def test_marginals_refuse_past_the_enumeration_bound():
    with pytest.raises(ValueError, match="enumeration bound"):
        marginals(independent_binary_network(40))
    # 2**15000 has more digits than Python converts to a string by default.
    refusal = r"^at least 2\*\*15000 joint configurations exceed the enumeration bound 1048576$"
    with pytest.raises(ValueError, match=refusal):
        marginals(independent_binary_network(15000))


@pytest.mark.parametrize("n", [6, 8, 10])
@pytest.mark.parametrize("build", [binary_chain_network, independent_binary_network])
def test_joint_enumeration_multiplies_once_per_placed_assignment(monkeypatch, build, n):
    # Counted, with no clock: the joint of n binary variables grows through
    # 2, 4, ..., 2**n assignments, each taking one factor entry as it is
    # placed, so marginals multiplies 2**(n + 1) - 2 times, and
    # check_equivalence, which grows both joints in one pass, twice that.
    net = build(n)
    sem = bbn_to_sem(net)
    calls = []

    def counted(a, b):
        calls.append(None)
        return a * b

    monkeypatch.setattr(bbn_module, "mul", counted)
    marginals(net)
    assert len(calls) == 2 ** (n + 1) - 2
    calls.clear()
    check_equivalence(net, sem)
    assert len(calls) == 2 * (2 ** (n + 1) - 2)
