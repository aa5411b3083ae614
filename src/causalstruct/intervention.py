"""Changes in structure: edits to the mechanisms of a system.

On the equation side a change replaces one equation's participation row or
adds a fresh exogenous variable with its defining equation; the edited
system must come out self-contained.  On the network side a change severs a
node from its parents and installs a fixed distribution (arc cutting), the
degenerate one-hot case covering value-fixing interventions.
"""

from __future__ import annotations

import math
from itertools import count
from typing import TYPE_CHECKING, Sequence

from .bbn import Bbn, BbnNode, _marginals, _require_enumerable, validate
from .graphs import reachable_from
from .structure import StructureMatrix, _Record, _require_self_contained, _store, _system_report

if TYPE_CHECKING:  # the intervene command loads no ordering code
    from .ordering import CausalOrdering

CHANGE_KINDS = ("replace_equation", "add_exogenous_variable")


class StructuralChange(_Record):
    """One edit to a system's equations: a new row for one equation.

    ``replace_equation``: ``target`` is an equation label, ``vars`` its new
    participation row.  ``add_exogenous_variable``: ``target`` is the new
    variable's name, ``vars`` the row of its defining equation (it may
    mention the new variable itself); that equation is labelled ``e{k}``
    for the least k above the old number of equations whose label is free.
    """

    _fields = ("kind", "target", "vars")

    def __init__(self, kind: str, target: str, vars: tuple[str, ...]):
        if kind not in CHANGE_KINDS:
            raise ValueError(f"unknown change kind {kind!r}")
        _store(self, "kind", kind)
        _store(self, "target", target)
        _store(self, "vars", vars)


def apply_change(matrix: StructureMatrix, change: StructuralChange) -> StructureMatrix:
    """Replace row e by the change's row and re-check self-containment.

    For ``replace_equation`` e is the target equation; for
    ``add_exogenous_variable`` e = n, a new row whose variable and label are
    appended.  An edit of a self-contained matrix costs one augmenting
    search over the matching its report keeps: dropping row e's pair leaves
    every other equation matched, and a maximum matching of the edited rows
    has at most one pair more, so the search decides the verdict.  If it
    fails, row e is the one equation left over and its reach is the
    violation, the same as a check from scratch finds.  The edited matrix
    keeps that report; an edit of a matrix that is not self-contained is
    checked from scratch.  Raises ``KeyError`` for an unknown target equation,
    ``ValueError`` for an added variable that already exists or has an empty
    name, an unknown variable in the row, or an empty row, and
    ``NotSelfContainedError``, with ``check_system``'s report, when the
    edited system is not self-contained.  The edited matrix is built by
    ``StructureMatrix._edited``, which checks only the name and the row the
    edit adds, with the constructor's own checks: the original's rows,
    names and labels were checked when it was built.

    An edit of an ordered matrix keeps, on the edited one, the original's
    flat analysis and e, and nothing else; its ordering then reorders only
    U, e's cluster and the clusters downstream of it.  Why the rest cannot
    move: let S be the other equations.
    - S is closed under precedence parents, so its rows mention only the
      variables matched to S.  Row e lies in U, so S's rows do not change.
    - Every perfect matching of the edited system matches S onto those same
      variables (S has as many), and the augmenting search keeps S's pairs:
      its path ends at row e's old column, which no row of S holds.  So no
      precedence enters S from U, and S's clusters, their orders and the
      edges among them stay as they were.
    - Only U needs a new ordering: the components and orders of U's
      precedence, with S's unchanged orders as inputs.
    - For ``add_exogenous_variable``, the new variable occurs only in the
      new row, which must therefore take it.  U is the new equation alone:
      the edit adds one cluster, one order above the clusters of the row's
      other variables, and changes nothing else.
    """
    index = {name: v for v, name in enumerate(matrix.variable_names)}
    added = ()
    if change.kind == "replace_equation":
        e = matrix.equation_index(change.target)
    else:
        if change.target in index:
            raise ValueError(f"variable {change.target!r} already exists")
        e = index[change.target] = matrix.n
        taken = set(matrix.equation_labels)
        added = change.target, next(f"e{k}" for k in count(e + 1) if f"e{k}" not in taken)
    try:
        row = frozenset(index[name] for name in change.vars)
    except KeyError as exc:
        raise ValueError(f"unknown variable {exc.args[0]!r} in new row") from None
    edited = matrix._edited(e, row, added)
    kept = matrix._report
    if kept.self_contained:
        from .matching import rematch

        _store(edited, "_report", _system_report(edited, *rematch(edited.rows, kept.matching, e)))
    _require_self_contained(edited, "change leaves the system ")
    analysis = vars(matrix).get("_analysis")
    if analysis is not None:  # only a self-contained matrix is ordered
        _store(edited, "_edit_of", (analysis, e))
    return edited


def affected_variables(ordering: CausalOrdering, changed_equation: int) -> frozenset[int]:
    """Variables whose values a change to this equation can touch.

    The changed equation's cluster plus everything downstream of it along
    the cluster edges; all other variables are insulated by their own
    mechanisms.  An ordering that ``causal_ordering`` made walks its
    matrix's kept child links, reading only the clusters it returns; one
    built from its four fields walks its given edges.  Raises ``KeyError``
    for an equation not in the system.
    """
    analysis = vars(ordering).get("_analysis")
    if analysis is not None:
        return analysis.affected(changed_equation)
    for start, cluster in enumerate(ordering.clusters):
        if changed_equation in cluster.equations:
            break
    else:
        raise KeyError(f"equation index {changed_equation} not in this system")
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
    cut = BbnNode(target.name, target.outcomes, (), (tuple(map(float, dist)),))
    report = validate(Bbn((cut,)))
    if not report.valid:
        raise ValueError(f"distribution {cut.cpt[0]!r} rejected: {report.issues[0].detail}")
    return Bbn(bbn.nodes[:node] + (cut,) + bbn.nodes[node + 1:])


def compare_marginals(before: Bbn, after: Bbn) -> dict[str, float]:
    """Per-variable max absolute marginal gap.

    A variable is unaffected when neither it nor any ancestor has a changed
    mechanism (parents by name, or table); its marginal is the same in both
    networks and its gap is exactly 0.0.  Each affected marginal is fixed by
    the mechanisms of its ancestors alone, so each network is enumerated
    only over the ancestors of its affected variables (barren-node removal,
    Shachter 1986); a gap agrees with full enumeration within 1e-12.  Raises
    ``ValueError`` when either pruned enumeration passes
    ``MAX_ENUMERABLE_CONFIGURATIONS`` configurations, before enumerating
    either network.
    """
    names = [node.name for node in before.nodes]
    if set(names) != {node.name for node in after.nodes}:
        raise ValueError("networks name different variable sets")
    index = {node.name: j for j, node in enumerate(after.nodes)}
    at = [index[name] for name in names]  # index in after, by index in before
    twins = [after.nodes[j] for j in at]
    for name, a, b in zip(names, before.nodes, twins):
        if a.outcomes != b.outcomes:
            raise ValueError(f"outcome space of {name!r} differs between networks")
    before._plan, after._plan  # refuse an invalid network before bounding its enumeration
    # A mechanism changed when its table or its parents, mapped into after, differ.
    changed = [
        i for i, (a, b) in enumerate(zip(before.nodes, twins))
        if a.cpt != b.cpt or tuple(at[p] for p in a.parents) != b.parents
    ]
    affected = sorted(reachable_from(changed, before.edges))
    sides = []
    for bbn, moved in ((before, affected), (after, [at[i] for i in affected])):
        arcs_up = ((c, p) for c, node in enumerate(bbn.nodes) for p in node.parents)
        nodes = sorted(reachable_from(moved, arcs_up))  # moved and their ancestors
        _require_enumerable(math.prod(bbn.nodes[v].outcome_count for v in nodes))
        sides.append((bbn, moved, nodes))
    before_marg, after_marg = (_marginals(*side) for side in sides)
    gaps = {name: 0.0 for name in names}
    for i, a, b in zip(affected, before_marg, after_marg):
        gaps[names[i]] = max(abs(x - y) for x, y in zip(a, b))
    return gaps
