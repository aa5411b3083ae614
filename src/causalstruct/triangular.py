"""Permuting a structure matrix to lower-triangular form.

This is the block-triangular form (Pothen & Fan 1990, "Computing the block
triangular form of a sparse matrix", ACM TOMS 16(4)) when every block has
size one.  Each equation of a self-contained system's perfect matching
follows the equations matched to its other variables; a topological order
of that precedence gives the rows, and their matched variables the
columns.  The order exists exactly when every cluster of the causal
ordering has degree one, and it does not depend on the matching: the last
unplaced variable of a placeable equation is always its matched one.

A matrix that has been ordered keeps that precedence in its analysis
(``ordering._Analysis``): with every cluster one equation, each cluster's
count of equations it follows is the equation's indegree, and its child
links are the equation's arcs.  Its triangularization is read off those,
with no row read and no ``precedence`` built, and the count of its
clusters alone says whether it exists.  A matrix never ordered, as in
every CLI process, builds ``precedence``, so the structure commands load
no ordering code.
"""

from __future__ import annotations

from .errors import CyclicStructureError
from .graphs import _kahn, topological_prefix
from .structure import StructureMatrix, _Record, _require_self_contained, precedence


class Triangularization(_Record):
    """Row/column permutations bringing the matrix to lower-triangular form.

    ``row_perm[k]`` is the equation placed at position k, ``col_perm[k]``
    the variable on the diagonal there.
    """

    _fields = ("row_perm", "col_perm")


def triangularize(matrix: StructureMatrix) -> Triangularization:
    """Order equations so each determines its matched variable from earlier ones.

    Ties between equations that are ready at the same step go to the lowest
    equation index (Kahn 1962).  Raises ``CyclicStructureError`` with the
    equations that can never be placed (those in feedback clusters and
    everything downstream of them), and ``NotSelfContainedError`` if the
    system fails the entry precondition.  An ordered matrix runs the same
    Kahn pass over its kept analysis's links, or walks them down from its
    feedback clusters for the equations that cannot be placed.
    """
    match = _require_self_contained(matrix)
    kept = vars(matrix).get("_analysis")
    if kept is None:
        row_perm = topological_prefix(precedence(matrix, match))
        if len(row_perm) != matrix.n:
            raise CyclicStructureError(frozenset(range(matrix.n)).difference(row_perm))
    else:
        start, pool, cluster = kept.start, kept.pool, kept.cluster
        if len(start) != matrix.n:
            stuck = kept.downstream(*[c for c, s in enumerate(start) if pool[s] > 1])
            raise CyclicStructureError(frozenset().union(*map(kept.members, stuck)))
        # Every cluster is one equation: its segment's second count is the
        # equation's indegree, and its links lead to the equations after it.
        indegree = [pool[start[c] + 1] for c in cluster]
        row_perm = _kahn(indegree, list(map(kept.last.__getitem__, cluster)), kept.before, kept.child)
        match = kept.match
    return Triangularization(tuple(row_perm), tuple(map(match.__getitem__, row_perm)))


def is_triangularizable(matrix: StructureMatrix) -> bool:
    """Whether the system can be rearranged to lower-triangular form.

    An ordered matrix answers from its count of clusters: it can exactly
    when each holds one equation.  Raises ``NotSelfContainedError``, with
    its report, on a system that is not self-contained.
    """
    kept = vars(matrix).get("_analysis")
    if kept is not None:
        return len(kept.start) == matrix.n
    try:
        triangularize(matrix)
    except CyclicStructureError:
        return False
    return True
