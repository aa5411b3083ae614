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

from causalstruct import marginals

from generators import random_bbn
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
