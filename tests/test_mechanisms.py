"""Same joint, different mechanisms.

``chain_rule_network`` refactors a network's joint along another node order.
The rebuild and the original agree on every joint probability, yet they are
different mechanisms: the round trip gives back each network's own arcs, and
an intervention on the same node moves different marginals.  A rebuild along
the original's own arcs (a topological order) moves the same ones wherever
every conditional is defined.
"""

import random

import pytest

from causalstruct import (
    Bbn,
    BbnNode,
    bbn_to_sem,
    check_equivalence,
    compare_marginals,
    intervene_bbn,
    roundtrip_check,
)

from generators import random_bbn
from oracles import chain_rule_network, ordering_restores_dag


def _rebuilds(count=40, seed=19):
    """Seeded networks, each with its rebuild along a shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        bbn = random_bbn(rng)
        order = list(range(bbn.n))
        rng.shuffle(order)
        yield bbn, order, chain_rule_network(bbn, order)


def test_rebuild_has_the_same_joint():
    rebuilt_arcs = 0
    for bbn, _, rebuilt in _rebuilds():
        assert check_equivalence(rebuilt, bbn_to_sem(bbn)) <= 1e-12
        rebuilt_arcs += rebuilt.edges != bbn.edges
    # Most pairs differ in their parents, so check_equivalence runs one pass per model.
    assert rebuilt_arcs > 20


def test_rebuild_round_trip_gives_its_own_arcs():
    for bbn, order, rebuilt in _rebuilds():
        complete = {(p, v) for k, v in enumerate(order) for p in order[:k]}
        assert rebuilt.edges == complete
        assert roundtrip_check(rebuilt) is True
        assert ordering_restores_dag(rebuilt)


@pytest.fixture
def pair():
    """x -> y with y leaning towards x's value, and its y -> x rebuild."""
    x = BbnNode("x", ("0", "1"), (), ((0.25, 0.75),))
    y = BbnNode("y", ("0", "1"), (0,), ((0.75, 0.25), (0.25, 0.75)))
    forward = Bbn((x, y))
    return forward, chain_rule_network(forward, (1, 0))


def test_reversed_pair_moves_x_when_y_is_set(pair):
    forward, reverse = pair
    assert reverse.nodes[0].parents == (1,)
    assert check_equivalence(reverse, bbn_to_sem(forward)) == 0.0
    # Setting y cuts y's mechanism: x's marginal stays put only where x is y's cause.
    deltas = [compare_marginals(net, intervene_bbn(net, 1, (1.0, 0.0))) for net in pair]
    assert deltas == [{"x": 0.0, "y": 0.625}, {"x": 0.25, "y": 0.625}]


def _topological_order(bbn, rng):
    """A random order of ``bbn``'s nodes in which every parent comes before its child."""
    order = []
    while len(order) < bbn.n:
        ready = [v for v in range(bbn.n) if v not in order and set(bbn.nodes[v].parents) <= set(order)]
        order.append(rng.choice(ready))
    return order


def test_rebuild_along_the_arcs_moves_what_the_original_moves():
    # Strictly positive, so every conditional the rebuild reads is defined by
    # the joint and equals the original mechanism's row.
    rng = random.Random(3)
    networks = 0
    while networks < 60:
        bbn = random_bbn(rng)
        if min(p for node in bbn.nodes for row in node.cpt for p in row) <= 0:
            continue
        networks += 1
        rebuilt = chain_rule_network(bbn, _topological_order(bbn, rng))
        for v, node in enumerate(bbn.nodes):
            for j in range(node.outcome_count):
                dist = tuple(float(k == j) for k in range(node.outcome_count))
                deltas = compare_marginals(bbn, intervene_bbn(bbn, v, dist))
                again = compare_marginals(rebuilt, intervene_bbn(rebuilt, v, dist))
                assert all(abs(deltas[name] - again[name]) <= 1e-12 for name in deltas)
