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

import random
from fractions import Fraction

from causalstruct import Bbn, BbnNode, compare_marginals, intervene_bbn, marginals

from generators import random_bbn, random_probability_row
from oracles import exact_joint

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
