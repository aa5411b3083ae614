"""Discrete belief networks: DAG over variables plus conditional tables.

Each node carries one probability row per configuration of its parents.
Rows are indexed in mixed-radix order with the first parent as the most
significant digit, a convention that also fixes the on-disk row order.
Construction accepts semantically broken networks (cycles, bad row sums,
wrong row counts) so that ``validate`` can report every violation; the
probability operations refuse an invalid network with ``InvalidBbnError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat
from operator import mul
from pathlib import Path
from typing import NamedTuple, Sequence

from .dotutil import _digraph, dot_id
from .errors import CycleError, FormatError, InvalidBbnError
from .graphs import topological_order as _topo
from .structure import _json_text, _load_json, _write_text

ROW_SUM_TOLERANCE = 1e-9

MAX_ENUMERABLE_CONFIGURATIONS = 2 ** 20

Assignment = tuple[int, ...]


class _Factor(NamedTuple):
    """One node compiled against its parents' outcome counts."""

    parents: tuple[int, ...]
    strides: tuple[int, ...]  # parent values -> row index, first parent most significant
    table: tuple  # the joint factor for row r and own value x, at r * outcomes + x


def _compile(parents, counts, factors) -> _Factor:
    """Compile one node; ``factors`` holds its joint factor per row and outcome."""
    radices = [counts[p] for p in parents]
    strides = tuple(math.prod(radices[j + 1:]) for j in range(len(radices)))
    return _Factor(parents, strides, tuple(chain.from_iterable(factors)))


def _probability(model, assignment: Sequence[int]) -> float:
    """Product of ``model``'s factors for one total assignment, in index order."""
    counts = model.outcome_counts()
    if len(assignment) != len(counts):
        raise ValueError(
            f"assignment covers {len(assignment)} of {len(counts)} variables"
        )
    if not all(0 <= x < k for x, k in zip(assignment, counts)):
        raise ValueError(f"assignment {tuple(assignment)} has an outcome out of range")
    p = 1.0
    for i, (parents, strides, table) in enumerate(model._plan):
        r = 0
        for q, s in zip(parents, strides):
            r += assignment[q] * s
        p *= table[r * counts[i] + assignment[i]]
    return p


def _require_enumerable(total: int) -> None:
    """Raise ``ValueError`` beyond ``MAX_ENUMERABLE_CONFIGURATIONS`` assignments."""
    if total > MAX_ENUMERABLE_CONFIGURATIONS:
        try:
            count = str(total)
        except ValueError:  # more digits than the interpreter converts
            count = f"at least 2**{total.bit_length() - 1}"
        raise ValueError(
            f"{count} joint configurations exceed the enumeration bound "
            f"{MAX_ENUMERABLE_CONFIGURATIONS}"
        )


def _joint(plans, counts, nodes=None) -> list[list[float]]:
    """Per plan, the product of its factors for every assignment of ``nodes``.

    ``nodes`` (default: every variable) lists an ancestrally closed set of
    variables in ascending order, so their factors read only variables in
    it.  Each joint is in ``product`` order over ``nodes``; over every
    variable it holds ``_probability`` of each assignment, in row-major
    index order.  All ``plans`` must have the same parent lists:
    each factor's table offsets are generated once and read from every
    plan's table.

    Each joint grows one variable at a time.  A factor is multiplied in once
    it and every earlier factor can be read off the variables placed so far,
    so assignments that share a prefix share its partial product while each
    value is still formed in node-index order, starting from 1.0.  Raises
    ``ValueError`` beyond ``MAX_ENUMERABLE_CONFIGURATIONS`` assignments.
    """
    nodes = range(len(counts)) if nodes is None else nodes
    radices = [counts[v] for v in nodes]
    _require_enumerable(math.prod(radices))
    at = {v: j for j, v in enumerate(nodes)}
    factors = [[plan[v] for v in nodes] for plan in plans]
    parents = [[at[p] for p in factor.parents] for factor in factors[0]]
    joints = [[1.0] for _ in plans]
    m = 0
    # Each joint is replaced in place, so at most one old list outlives its successor.
    for depth, k in enumerate(radices):
        for i in range(len(joints)):
            joints[i] = list(chain.from_iterable(map(repeat, joints[i], repeat(k))))
        while m < len(nodes) and max((m, *parents[m])) <= depth:
            # The table offset of each placed assignment, summed from per-variable parts.
            weights = [0] * (depth + 1)
            weights[m] = 1
            for p, s in zip(parents[m], factors[0][m].strides):
                weights[p] += s * radices[m]
            parts = (range(0, c * w, w) if w else (0,) * c for c, w in zip(radices, weights))
            offsets = map(sum, product(*parts))
            if len(plans) > 1:
                offsets = list(offsets)  # read once per plan
            for i, plan in enumerate(factors):
                joints[i] = list(map(mul, joints[i], map(plan[m].table.__getitem__, offsets)))
            m += 1
    return joints


@dataclass(frozen=True)
class BbnNode:
    """One variable: outcome labels, parent indices, conditional table."""

    name: str
    outcomes: tuple[str, ...]
    parents: tuple[int, ...]
    cpt: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.name:
            raise ValueError("node name must be non-empty")
        if len(self.outcomes) < 2:
            raise ValueError(f"node {self.name!r} needs at least two outcomes")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError(f"node {self.name!r} has duplicate outcome labels")

    @property
    def outcome_count(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Bbn:
    """Belief network over an indexed tuple of nodes."""

    nodes: tuple[BbnNode, ...]

    def __post_init__(self):
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be distinct")
        for node in self.nodes:
            for p in node.parents:
                if p < 0 or p >= len(self.nodes):
                    raise ValueError(
                        f"node {node.name!r} references parent index {p} out of range"
                    )

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def _name_to_index(self) -> dict[str, int]:
        return {node.name: i for i, node in enumerate(self.nodes)}

    def index_of(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Directed arcs (parent, child) derived from the parent lists."""
        return frozenset(
            (p, child) for child, node in enumerate(self.nodes) for p in node.parents
        )

    def outcome_counts(self) -> tuple[int, ...]:
        return tuple(node.outcome_count for node in self.nodes)

    @cached_property
    def _plan(self) -> tuple[_Factor, ...]:
        """Per node, its table entries as joint factors; only for a valid network."""
        _require_valid(self)
        counts = self.outcome_counts()
        return tuple(_compile(node.parents, counts, node.cpt) for node in self.nodes)

    @cached_property
    def _report(self) -> BbnReport:
        """The verdict of ``validate``; a network is immutable, so it is computed once."""
        return _validate(self)


@dataclass(frozen=True)
class BbnIssue:
    """One invariant violation found by ``validate``; ``node`` is None for a
    cycle, and ``detail`` names the row of a row-level issue."""

    kind: str  # "cycle" | "row-count" | "row-length" | "row-sum" | "entry-range" | "duplicate-parent"
    node: int | None
    detail: str


@dataclass(frozen=True)
class BbnReport:
    bbn: Bbn
    issues: tuple[BbnIssue, ...]

    @property
    def valid(self) -> bool:
        return not self.issues

    def describe(self) -> str:
        if self.valid:
            return "valid"
        lines = []
        for issue in self.issues:
            where = "" if issue.node is None else f" [{self.bbn.nodes[issue.node].name}]"
            lines.append(f"{issue.kind}{where}: {issue.detail}")
        return "\n".join(lines)


def validate(bbn: Bbn) -> BbnReport:
    """Report every invariant violation; an empty report means valid.

    The report is computed on the first call for a network and kept on it.
    """
    return bbn._report


def _require_valid(bbn: Bbn) -> None:
    """Raise ``InvalidBbnError`` with the report if ``validate`` refuses ``bbn``."""
    report = bbn._report
    if not report.valid:
        raise InvalidBbnError(report.describe(), report)


def _validate(bbn: Bbn) -> BbnReport:
    issues: list[BbnIssue] = []

    try:
        _topo([node.parents for node in bbn.nodes])
    except CycleError as exc:
        issues.append(
            BbnIssue(
                kind="cycle",
                node=None,
                detail=exc.describe([node.name for node in bbn.nodes]),
            )
        )

    for i, node in enumerate(bbn.nodes):
        if len(set(node.parents)) != len(node.parents):
            issues.append(
                BbnIssue("duplicate-parent", i, "parent list repeats a variable")
            )
        expected_rows = math.prod(bbn.nodes[p].outcome_count for p in node.parents)
        if len(node.cpt) != expected_rows:
            issues.append(
                BbnIssue(
                    "row-count",
                    i,
                    f"expected {expected_rows} rows, found {len(node.cpt)}",
                )
            )
        for r, row in enumerate(node.cpt):
            if len(row) != node.outcome_count:
                issues.append(
                    BbnIssue(
                        "row-length",
                        i,
                        f"row {r} has {len(row)} entries for "
                        f"{node.outcome_count} outcomes",
                    )
                )
                continue
            if not all(0.0 <= p <= 1.0 for p in row):
                issues.append(
                    BbnIssue("entry-range", i, f"row {r} has entries outside [0, 1]")
                )
                if not all(map(math.isfinite, row)):
                    continue
            try:
                total = math.fsum(row)
            except OverflowError:  # entries this large are already out of range
                continue
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                issues.append(BbnIssue("row-sum", i, f"row {r} sums to {total!r}"))
    return BbnReport(bbn=bbn, issues=tuple(issues))


def joint_probability(bbn: Bbn, assignment: Sequence[int]) -> float:
    """Product of the table entries selected by a total assignment."""
    return _probability(bbn, assignment)


def marginals(bbn: Bbn) -> list[list[float]]:
    """Per-variable outcome marginals by exact enumeration of the joint.

    Each cell is the ``math.fsum`` of the joint probabilities of the
    assignments giving that variable that outcome.  Raises ``ValueError``
    beyond ``MAX_ENUMERABLE_CONFIGURATIONS`` joint configurations.
    """
    return _marginals(bbn, range(bbn.n), range(bbn.n))


def _marginals(bbn: Bbn, variables, nodes: Sequence[int]) -> list[list[float]]:
    """``marginals`` of ``variables``, enumerating only ``nodes``.

    ``nodes`` is ascending, holds ``variables`` and is ancestrally closed.
    """
    counts = bbn.outcome_counts()
    (joint,) = _joint((bbn._plan,), counts, nodes)
    radices = [counts[v] for v in nodes]
    position = {v: j for j, v in enumerate(nodes)}
    total = len(joint)
    result = []
    for v in variables:
        j = position[v]
        block = math.prod(radices[j:])  # assignments per run of this variable's outcomes
        stride = block // radices[j]
        cells = []
        for start in range(0, block, stride):
            if stride <= total // block:
                parts = (joint[start + t::block] for t in range(stride))
            else:
                parts = (joint[s:s + stride] for s in range(start, total, block))
            cells.append(math.fsum(chain.from_iterable(parts)))
        result.append(cells)
    return result


def bbn_to_dot(bbn: Bbn) -> str:
    """DOT digraph of the network's arcs."""
    names = [node.name for node in bbn.nodes]
    return _digraph("bbn", [f"  {dot_id(name)};" for name in names], names, bbn.edges)


# ---------------------------------------------------------------------------
# File format:
# {"nodes": [{"name":..., "outcomes":[...], "parents":[...], "cpt":[[...],...]}]}

def bbn_from_dict(doc: object) -> Bbn:
    """Parse a network document; node order fixes variable indices."""
    nodes = []
    for name, raw, parents, rows in _named_items(doc, "network", "node", "name", "cpt", ("outcomes",)):
        outcomes = raw.get("outcomes")
        if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
            raise FormatError(f'node {name!r}: "outcomes" must be a list of strings')
        try:
            nodes.append(BbnNode(name, tuple(outcomes), parents, rows))
        except ValueError as exc:  # its message names the node
            raise FormatError(str(exc)) from None
    return Bbn(tuple(nodes))


def bbn_to_dict(bbn: Bbn) -> dict:
    return {
        "nodes": [
            {
                "name": node.name,
                "outcomes": list(node.outcomes),
                "parents": [bbn.nodes[p].name for p in node.parents],
                "cpt": [list(row) for row in node.cpt],
            }
            for node in bbn.nodes
        ]
    }


def _named_items(doc: object, document: str, item: str, name_key: str, rows_key: str, keys: tuple = ()):
    """Check ``{item + "s": [{name_key: ..., "parents": [...], rows_key: [[...], ...], *keys}]}``.

    Yields (name, item object, parent indices, rows) in list order once the
    item's keys and parents check out: names must be distinct and every
    parent one of them.  Both model files read their rows here, by ``_json_floats``.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{document} document must be a JSON object")
    extra = set(doc) - {item + "s"}
    if extra:
        raise FormatError(f"unknown keys in {document} document: {sorted(extra)}")
    raw_items = doc.get(item + "s")
    if not isinstance(raw_items, list):
        raise FormatError(f'"{item}s" must be a list')
    names: list[str] = []
    for k, raw in enumerate(raw_items):
        if not isinstance(raw, dict) or not isinstance(raw.get(name_key), str):
            raise FormatError(f'{item} {k}: missing or non-string "{name_key}"')
        names.append(raw[name_key])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise FormatError(f"{item} {name_key}s must be distinct")
    for name, raw in zip(names, raw_items):
        extra = set(raw) - {name_key, "parents", rows_key, *keys}
        if extra:
            raise FormatError(f"{item} {name!r}: unknown keys {sorted(extra)}")
        parents = raw.get("parents")
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise FormatError(f'{item} {name!r}: "parents" must be a list of names')
        unknown = [p for p in parents if p not in index]
        if unknown:
            raise FormatError(f"{item} {name!r}: unknown parent {unknown[0]!r}")
        table = raw.get(rows_key)
        if not isinstance(table, list):
            raise FormatError(f'{item} {name!r}: "{rows_key}" must be a list of rows')
        noun = f"{item} {name!r}: {rows_key.rstrip('s')} row"
        rows = tuple(_json_floats(row, f"{noun} {r}") for r, row in enumerate(table))
        yield name, raw, tuple(index[p] for p in parents), rows


def _json_floats(value: object, what: str) -> tuple[float, ...]:
    """A JSON list of finite numbers as floats; ``FormatError`` otherwise."""
    if not isinstance(value, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        raise FormatError(f"{what} must be a list of numbers")
    try:
        floats = tuple(map(float, value))
        finite = all(map(math.isfinite, floats))
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise FormatError(f"{what} holds a non-finite number")
    return floats


def load_bbn(path: str | Path) -> Bbn:
    return bbn_from_dict(_load_json(path))


def save_bbn(bbn: Bbn, path: str | Path) -> None:
    _write_text(path, _json_text(bbn_to_dict(bbn)))
