"""Permuting a structure matrix to lower-triangular form.

This is the block-triangular form (Pothen & Fan 1990, "Computing the block
triangular form of a sparse matrix", ACM TOMS 16(4)) when every block has
size one.  Each equation of a self-contained system's perfect matching
follows the equations matched to its other variables; a topological order
of that precedence gives the rows, and their matched variables the
columns.  The order exists exactly when every cluster of the causal
ordering has degree one, and it does not depend on the matching: the last
unplaced variable of a placeable equation is always its matched one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CyclicStructureError
from .graphs import topological_prefix
from .structure import StructureMatrix, _require_self_contained, precedence


@dataclass(frozen=True)
class Triangularization:
    """Row/column permutations bringing the matrix to lower-triangular form.

    ``row_perm[k]`` is the equation placed at position k, ``col_perm[k]``
    the variable on the diagonal there.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]


def triangularize(matrix: StructureMatrix) -> Triangularization:
    """Order equations so each determines its matched variable from earlier ones.

    Ties between equations that are ready at the same step go to the lowest
    equation index.  Raises ``CyclicStructureError`` with the equations
    that can never be placed (those in feedback clusters and everything
    downstream of them), and ``NotSelfContainedError`` if the system fails
    the entry precondition.
    """
    match = _require_self_contained(matrix)
    row_perm = topological_prefix(precedence(matrix, match))
    if len(row_perm) != matrix.n:
        raise CyclicStructureError(frozenset(range(matrix.n)).difference(row_perm))
    return Triangularization(tuple(row_perm), tuple(match[e] for e in row_perm))


def is_triangularizable(matrix: StructureMatrix) -> bool:
    """Whether the system can be rearranged to lower-triangular form.

    Raises ``NotSelfContainedError``, with its report, on a system that is not self-contained.
    """
    try:
        triangularize(matrix)
    except CyclicStructureError:
        return False
    return True
