"""Changes in structure: edits to the mechanisms of a system.

On the equation side a change replaces one equation's participation row or
adds a fresh exogenous variable with its defining equation; the edited
system must come out self-contained.  On the network side a change severs a
node from its parents and installs a fixed distribution (arc cutting), the
degenerate one-hot case covering value-fixing interventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bbn import Bbn, BbnNode, marginals, validate
from .errors import NotSelfContainedError
from .graphs import reachable_from
from .ordering import CausalOrdering
from .structure import StructureMatrix, check_system

CHANGE_KINDS = ("replace_equation", "add_exogenous_variable")


@dataclass(frozen=True)
class StructuralChange:
    """One edit to a system's equations.

    ``replace_equation``: ``target`` is an equation label, ``vars`` the new
    participation row.  ``add_exogenous_variable``: ``target`` is the new
    variable's name, ``vars`` the row of its defining equation (it may
    mention the new variable itself).
    """

    kind: str
    target: str
    vars: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in CHANGE_KINDS:
            raise ValueError(f"unknown change kind {self.kind!r}")


def apply_change(matrix: StructureMatrix, change: StructuralChange) -> StructureMatrix:
    """Apply an equation-side change and re-check self-containment.

    Raises ``NotSelfContainedError`` with the witness report when the edit
    breaks the system.
    """
    if change.kind == "replace_equation":
        e = matrix.equation_index(change.target)
        row = frozenset(matrix.variable_index(name) for name in change.vars)
        if not row:
            raise ValueError("replacement row must mention at least one variable")
        rows = list(matrix.rows)
        rows[e] = row
        edited = StructureMatrix(matrix.variable_names, matrix.equation_labels, tuple(rows))
    else:
        if change.target in matrix.variable_names:
            raise ValueError(f"variable {change.target!r} already exists")
        names = matrix.variable_names + (change.target,)
        label = f"e{matrix.n + 1}"
        if label in matrix.equation_labels:
            raise ValueError(f"generated equation label {label!r} already exists")
        index = {name: i for i, name in enumerate(names)}
        try:
            row = frozenset(index[name] for name in change.vars)
        except KeyError as exc:
            raise ValueError(f"unknown variable {exc.args[0]!r} in new row") from None
        if not row:
            raise ValueError("defining row must mention at least one variable")
        edited = StructureMatrix(
            variable_names=names,
            equation_labels=matrix.equation_labels + (label,),
            rows=matrix.rows + (row,),
        )

    report = check_system(edited)
    if not report.self_contained:
        raise NotSelfContainedError(
            f"change leaves the system {report.describe()}", report
        )
    return edited


def affected_variables(ordering: CausalOrdering, changed_equation: int) -> frozenset[int]:
    """Variables whose values a change to this equation can touch.

    The changed equation's cluster plus everything downstream of it along
    the cluster edges; all other variables are insulated by their own
    mechanisms.
    """
    start = ordering.cluster_of_equation(changed_equation)
    hit = reachable_from((start,), ordering.cluster_edges)
    result: set[int] = set()
    for ci in hit:
        result |= ordering.clusters[ci].variables
    return frozenset(result)


def intervene_bbn(bbn: Bbn, node: int, dist: Sequence[float]) -> Bbn:
    """Cut a node loose from its parents and impose ``dist`` on it.

    ``dist`` must pass ``validate`` as the node's one parentless CPT row.
    """
    if node < 0 or node >= bbn.n:
        raise IndexError(f"node index {node} out of range")
    target = bbn.nodes[node]
    row = tuple(dist)
    report = validate(Bbn((BbnNode(target.name, target.outcomes, (), (row,)),)))
    if not report.valid:
        raise ValueError(f"distribution {row!r} rejected: {report.issues[0].detail}")
    nodes = list(bbn.nodes)
    nodes[node] = BbnNode(target.name, target.outcomes, (), (tuple(map(float, row)),))
    return Bbn(tuple(nodes))


def compare_marginals(before: Bbn, after: Bbn) -> dict[str, float]:
    """Per-variable max absolute marginal gap.

    A variable is unaffected when neither it nor any ancestor has a changed
    mechanism (parents by name, or table); its marginal is the same in both
    networks and its gap is exactly 0.0.  The other gaps come from exact
    enumeration.  Raises ``ValueError`` beyond
    ``MAX_ENUMERABLE_CONFIGURATIONS`` joint configurations, before
    enumerating either network.
    """
    names = [node.name for node in before.nodes]
    if set(names) != {node.name for node in after.nodes}:
        raise ValueError("networks name different variable sets")
    at = [after.index_of(name) for name in names]  # index in after, by index in before
    twins = [after.nodes[j] for j in at]
    for name, a, b in zip(names, before.nodes, twins):
        if a.outcomes != b.outcomes:
            raise ValueError(f"outcome space of {name!r} differs between networks")
    before_marg = marginals(before)
    after_marg = marginals(after)
    # A mechanism changed when its table or its parents, mapped into after, differ.
    changed = [
        i for i, (a, b) in enumerate(zip(before.nodes, twins))
        if a.cpt != b.cpt or tuple(at[p] for p in a.parents) != b.parents
    ]
    affected = reachable_from(changed, before.edges)
    return {
        name: max(abs(x - y) for x, y in zip(before_marg[i], after_marg[at[i]]))
        if i in affected else 0.0
        for i, name in enumerate(names)
    }
