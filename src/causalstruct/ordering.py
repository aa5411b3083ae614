"""Causal ordering of a self-contained structure matrix.

The ordering partitions equations and variables into clusters (minimal
self-contained subsets), stamps each cluster with the step at which the
recursive identify-solve-substitute procedure would reach it, and draws
precedence edges from already-solved variables into each cluster.

Instead of enumerating subsets, the implementation matches each equation to
one of its variables and lets every equation follow the equations matched
to its other variables.  The clusters are the strongly connected components
of that equation precedence, and one Tarjan pass keeping one rank per
equation (Tarjan 1972; Pearce 2016) yields them ancestors first, so each
cluster's order (one more than the largest among its predecessors, else 0)
and in-edges are read off as it is finished.  That is
the square Dulmage-Mendelsohn decomposition (Iwasaki & Simon 1994, "Causality
and model abstraction"), computed as in Pothen & Fan (1990).  The result is
matching-independent and held against a brute-force oracle in the tests.
"""

from __future__ import annotations

from .dotutil import _digraph, dot_id
from .graphs import strongly_connected_components
from .matching import maximum_matching
from .structure import StructureMatrix, _Record, _require_self_contained, _store, precedence


class Cluster(_Record):
    """A minimal self-contained subset: equations, their variables, order."""

    __slots__ = _fields = ("equations", "variables", "order")

    def __init__(self, equations: frozenset[int], variables: frozenset[int], order: int):
        _store(self, "equations", equations)
        _store(self, "variables", variables)
        _store(self, "order", order)

    @property
    def degree(self) -> int:
        return len(self.equations)


class CausalOrdering(_Record):
    """Clusters in canonical order plus cluster- and variable-level edges.

    Clusters are sorted by (order, smallest variable index).  Cluster edges
    are pairs of positions in ``clusters``; variable edges are pairs of
    variable indices, each meaning the source is a direct causal predecessor
    of the target.  The cluster of a variable or an equation is the one
    whose set holds it.
    """

    _fields = ("matrix", "clusters", "cluster_edges", "variable_edges")

    def __init__(
        self,
        matrix: StructureMatrix,
        clusters: tuple[Cluster, ...],
        cluster_edges: frozenset[tuple[int, int]],
        variable_edges: frozenset[tuple[int, int]],
    ):
        _store(self, "matrix", matrix)
        _store(self, "clusters", clusters)
        _store(self, "cluster_edges", cluster_edges)
        _store(self, "variable_edges", variable_edges)


def causal_ordering(matrix: StructureMatrix) -> CausalOrdering:
    """Compute clusters, orders and precedence edges for a self-contained system."""
    _require_self_contained(matrix)
    # The gate's kept matching would do, but bench/test_bench.py pins two
    # maximum_matching calls per ordering of a fresh matrix; this call goes
    # when a benchmark change lifts that pin.
    match, _ = maximum_matching(matrix.rows)
    parents = precedence(matrix, match)

    # Tarjan finishes a component only after every component it reaches, so
    # over parent lists each cluster's predecessors are already numbered.
    comps = strongly_connected_components(parents)
    cluster_of = [0] * matrix.n
    orders: list[int] = []
    # Parent and equation of each precedence between different clusters, in
    # two flat lists, which hold no tuple per pair.
    cross_parents: list[int] = []
    cross_equations: list[int] = []
    for ci, comp in enumerate(comps):
        for e in comp:
            cluster_of[e] = ci
        order = 0
        for e in comp:
            for p in parents[e]:
                if cluster_of[p] != ci:
                    cross_parents.append(p)
                    cross_equations.append(e)
                    order = max(order, orders[cluster_of[p]] + 1)
        orders.append(order)
    # Equal sets are one object: a singleton {k} serves as one cluster's
    # equations and as another's variables.
    shared: dict[frozenset[int], frozenset[int]] = {}
    equations = [shared.setdefault(s, s) for s in map(frozenset, comps)]
    variables = [frozenset(match[e] for e in comp) for comp in comps]
    variables = [shared.setdefault(s, s) for s in variables]
    del parents, comps, shared  # freed before the edge sets are built

    canonical = sorted(range(len(orders)), key=lambda ci: (orders[ci], min(variables[ci])))
    position = [0] * len(orders)
    for new, ci in enumerate(canonical):
        position[ci] = new
    clusters = tuple(Cluster(equations[ci], variables[ci], orders[ci]) for ci in canonical)
    # Each edge frozenset is copied from its own set, one at a time: a copy
    # sizes its table to fit, half what building from a generator leaves.
    cross = cross_parents, cross_equations
    cluster_edges = frozenset({(position[cluster_of[p]], position[cluster_of[e]]) for p, e in zip(*cross)})
    variable_edges = frozenset({(match[p], w) for p, e in zip(*cross) for w in variables[cluster_of[e]]})

    return CausalOrdering(
        matrix=matrix,
        clusters=clusters,
        cluster_edges=cluster_edges,
        variable_edges=variable_edges,
    )


def ordering_to_dot(ordering: CausalOrdering) -> str:
    """Render the variable-level causal graph as DOT text.

    Feedback clusters (degree above one) become boxed same-rank subgraphs
    annotated with their degree; no edges are drawn inside them.
    """
    matrix = ordering.matrix
    lines = []
    box = 0
    for cluster in ordering.clusters:
        names = [dot_id(matrix.variable_names[v]) for v in sorted(cluster.variables)]
        if cluster.degree > 1:
            lines.append(f"  subgraph cluster_{box} {{")
            lines.append(f'    label="degree={cluster.degree}";')
            lines.append("    rank=same;")
            lines.extend(f"    {name};" for name in names)
            lines.append("  }")
            box += 1
        else:
            lines.extend(f"  {name};" for name in names)
    return _digraph("causal_ordering", lines, matrix.variable_names, ordering.variable_edges)
