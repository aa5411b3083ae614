"""Probability outputs against exact rationals, within derived bounds.

``oracles.exact_joint`` multiplies each network's float table entries in
exact rationals, so it is the exact value those floats define.  A joint
value ``marginals`` forms is a product of n floats started from 1.0, so
n - 1 rounded products, and a cell is one correctly rounded ``math.fsum``
of such values.  Each product is within a factor (1 + u)^(n-1) of exact and
the sum adds one more, with u = 2^-53, so every cell lies within (n + 1)·u
of exact, relative to the exact value (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 2002, §3.1).  A cell whose exact value is
0 sums only zeros, so it is exactly 0.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from causalstruct import (
    Bbn,
    BbnNode,
    bbn_to_sem,
    check_equivalence,
    compare_marginals,
    intervene_bbn,
    marginals,
    sample,
    sem_from_dict,
)

from generators import fan_in_sem_doc, random_bbn, random_probability_row
from oracles import exact_joint, exact_sem_joint

U = Fraction(1, 2**53)


def exact_marginals(bbn):
    """Each variable's outcome marginals, summed exactly from ``exact_joint``."""
    joint = exact_joint(bbn)
    # Every value is an integer over a power of two, so the largest
    # denominator is a common one and the sums are integer sums.
    scale = max(p.denominator for p in joint.values())
    cells = [[0] * k for k in bbn.outcome_counts()]
    for assignment, p in joint.items():
        part = p.numerator * (scale // p.denominator)
        for v, j in enumerate(assignment):
            cells[v][j] += part
    return [[Fraction(cell, scale) for cell in row] for row in cells]


def test_marginal_cells_lie_within_their_rounding_bound_of_exact():
    rng = random.Random(5)
    for _ in range(100):
        bbn = random_bbn(rng)
        for cells, exact in zip(marginals(bbn), exact_marginals(bbn)):
            for cell, value in zip(cells, exact):
                # At an exact 0 the bound is 0: the cell must be exactly 0.0.
                assert abs(Fraction(cell) - value) <= (bbn.n + 1) * U * value


def ancestral_exact_marginals(bbn, variables):
    """Per variable of ``variables``, its exact marginal in the network of
    ``variables`` and their ancestors, the nodes ``compare_marginals`` enumerates."""
    kept, stack = set(), list(variables)
    while stack:
        v = stack.pop()
        if v not in kept:
            kept.add(v)
            stack.extend(bbn.nodes[v].parents)
    nodes = sorted(kept)
    position = {v: k for k, v in enumerate(nodes)}
    sub = Bbn(tuple(
        BbnNode(node.name, node.outcomes, tuple(position[p] for p in node.parents), node.cpt)
        for node in map(bbn.nodes.__getitem__, nodes)
    ))
    cells = exact_marginals(sub)
    return {v: cells[position[v]] for v in variables}


def test_intervention_deltas_lie_within_their_rounding_bound_of_exact():
    """Each network is enumerated over the ancestors of the variables the
    change can move, so a cell's exact value is that variable's marginal in
    the ancestral network; summing the other nodes out as well would weigh
    it by their row sums, which are 1 only within rounding.  A cell x of
    exact value X <= 1 lies within (n + 1)·u·X <= (n + 1)·u of it (module
    docstring), and so does y of Y.  Then x − y is within 2(n + 1)·u of
    X − Y, and its rounding adds at most u·|x − y| <= u + O(u²).  A maximum
    over outcomes is off by no more than its worst term, so each delta is
    within (2n + 3)·u + O(u²) of the exact delta; (2n + 4)·u is tested.  A
    variable with no changed ancestor reads exactly 0.0."""
    rng = random.Random(5)
    for _ in range(100):
        before = random_bbn(rng)
        cut = rng.randrange(before.n)
        after = intervene_bbn(before, cut, random_probability_row(rng, before.nodes[cut].outcome_count))
        moved, stack = set(), [cut]
        while stack:
            v = stack.pop()
            if v not in moved:
                moved.add(v)
                stack.extend(c for c, node in enumerate(before.nodes) if v in node.parents)
        exact = [ancestral_exact_marginals(bbn, moved) for bbn in (before, after)]
        deltas = compare_marginals(before, after)
        for v, node in enumerate(before.nodes):
            if v not in moved:
                assert deltas[node.name] == 0.0
                continue
            delta = max(abs(x - y) for x, y in zip(exact[0][v], exact[1][v]))
            assert abs(Fraction(deltas[node.name]) - delta) <= (2 * before.n + 4) * U


def test_equivalence_gap_lies_within_its_rounding_bound_of_exact():
    """The exact gap is the largest |a − b| over assignments, with a the
    exact product of the network's float entries and b that of the exact
    differences of the equations' float thresholds; both lie in [0, 1].
    ``check_equivalence`` forms a with n − 1 rounded products, so within
    (n − 1)·u·a + O(u²) of exact, and b with n rounded subtractions, each
    within u of its exact length relative to it, and n − 1 rounded products,
    so within (2n − 1)·u·b + O(u²).  Rounding the difference of values in
    [0, 1] adds at most u, and a maximum is off by no more than its worst
    term, so the result is within (3n − 1)·u + O(u²) of the exact gap;
    3n·u is tested.  Each network is held against its own equations, whose
    exact gap is a few u at most, and against those of the network with one
    node cut loose, whose gap is large, so that an error both joints share
    cannot cancel out."""
    rng, redraw = random.Random(5), random.Random(6)
    for _ in range(100):
        bbn = random_bbn(rng)
        cut = redraw.randrange(bbn.n)
        after = intervene_bbn(bbn, cut, random_probability_row(redraw, bbn.nodes[cut].outcome_count))
        network = exact_joint(bbn)
        for sem in map(bbn_to_sem, (bbn, after)):
            equations = exact_sem_joint(sem)
            exact = max(abs(network[a] - equations[a]) for a in network)
            assert abs(Fraction(check_equivalence(bbn, sem)) - exact) <= 3 * bbn.n * U


# The false-alarm probability allowed per checked cell of a sample, as in
# the benchmark's checks (bench/checks.py::SAMPLE_DELTA).
SAMPLE_DELTA = 1e-9


def deviation_bound(p: float, m: int) -> float:
    """Bernstein: |k/m - p| exceeds this with probability below SAMPLE_DELTA.

    k counts the hits among m independent draws that each hit with
    probability p, so P(|k/m - p| >= e) <= 2 exp(-m e^2 / (2p(1 - p) + 2e/3));
    this is the e at which the right side is SAMPLE_DELTA.  Restates
    bench/checks.py::deviation_bound.
    """
    t = math.log(2 / SAMPLE_DELTA)
    return (2 * t / 3 + math.sqrt(4 * t * t / 9 + 8 * m * p * (1 - p) * t)) / (2 * m)


@pytest.mark.parametrize(
    "sem",
    [
        # Six-node networks whose variables take one group of rows or several.
        *(bbn_to_sem(random_bbn(random.Random(seed))) for seed in (19, 20, 37)),
        # A ternary child of 3 ternary roots: 27 rows in more than one group.
        sem_from_dict(fan_in_sem_doc(random.Random(27), 3, 3)),
    ],
    ids=["network-19", "network-20", "network-37", "fan-27"],
)
def test_sample_frequencies_lie_within_bernsteins_bound_of_exact(sem):
    """No draw has exact probability 0, and every joint cell, drawn or not,
    and every conditional cell (a variable's outcome given its parents'
    values, over the draws that take them) lies within ``deviation_bound``
    of its exact probability: the exact product of the exact threshold
    differences that select the assignment, and the exact difference of
    two float thresholds.  The
    latents are independent, so given its parents' values each variable's
    outcomes are an exact multinomial sample of its row.  At SAMPLE_DELTA
    per cell and fewer than 10^4 cells a system, a correct sampler fails a
    system with probability below 10^-5; the seeds are fixed, so the test
    is deterministic."""
    draws = 40_000
    counts = sample(sem, seed=20, count=draws)
    joint = exact_sem_joint(sem)
    assert all(joint[assignment] > 0 for assignment in counts)
    for assignment, p in joint.items():
        k = counts.get(assignment, 0)
        assert abs(Fraction(k, draws) - p) <= deviation_bound(float(p), draws), assignment
    outcome_counts = sem.outcome_counts()
    for v, eq in enumerate(sem.equations):
        cells = [Counter() for _ in eq.thresholds]
        for assignment, k in counts.items():
            rank = 0
            for q in eq.parents:
                rank = rank * outcome_counts[q] + assignment[q]
            cells[rank][assignment[v]] += k
        for row, cell in zip(eq.thresholds, cells):
            m = sum(cell.values())
            for j, (low, high) in enumerate(zip((0.0,) + row, row) if m else ()):
                p = Fraction(high) - Fraction(low)
                assert abs(Fraction(cell[j], m) - p) <= deviation_bound(float(p), m), (v, row, j)
