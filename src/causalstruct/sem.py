"""Threshold-equation systems: deterministic equations with latent uniforms.

A discrete network is rewritten as one equation per variable.  The equation
for y carries a private latent variable, uniform on (0, 1], and a table of
cumulative thresholds, one row per parent configuration: with row
(c_1, ..., c_k), outcome j is selected exactly when the latent falls in
(c_{j-1}, c_j].  Interval lengths therefore reproduce the conditional
probabilities, making the equation system and the source network agree on
the full joint distribution, which ``check_equivalence`` verifies by
enumeration.

Thresholds are cumulative sums of the conditional rows, clamped to at most
1 and ending at exactly 1.0 (a file's entries may pass 1 by at most 1e-9,
and its rows must end within 1e-9 of 1), so a latent drawn at 1.0 always
selects the last outcome with a non-empty interval.  Zero-probability
entries yield empty intervals, which no latent can hit.

Forward evaluation runs by columns: for a block of draws, each variable in
evaluation order selects all its values at once from its parents' value
columns, so the per-draw work runs in C.  ``evaluate`` bisects float
latents in the rows.  ``sample`` reads each latent as the 53-bit integer m
behind ``random() == m / 2**53`` and settles most draws from m's leading
byte alone, through one 256-entry guide table per threshold row (Chen and
Asau's guide table, indexed by the uniform's leading digits); a draw the
byte cannot settle is bisected exactly, as ``evaluate`` would.  Systems
whose values or row ranks do not fit a byte sample through ``evaluate``'s
pass.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat, starmap
from operator import getitem, sub
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .bbn import ROW_SUM_TOLERANCE, Assignment, Bbn
from .bbn import joint_probability  # noqa: F401  (bench/test_bench.py::test_tracer_restores_every_binding)
from .bbn import _compile, _Factor, _joint, _named_items, _probability, _require_valid
from .errors import FormatError
from .ordering import causal_ordering
from .structure import StructureMatrix, _load_json
from .graphs import topological_order as _topo

# Draws per byte-lane pass of ``sample``: enough to spread each variable's
# per-pass cost thin, few enough to keep memory flat in the count.  At 8
# bytes of generator output per latent, 4096 draws take the memory that
# 1024 float latents do.
CHUNK = 4096

# A latent's leading byte is m >> 45, so bucket h holds m in [h, h + 1) * 2**45.
_BUCKET = 45
# A guide-table entry for a bucket that holds more than one outcome.
_UNSETTLED = 255


@dataclass(frozen=True)
class ThresholdEquation:
    """Deterministic equation for one variable: its parents and its rows.

    The equation carries no variable index; its position in a
    ``ThresholdEquationSystem`` says which variable it selects.
    ``thresholds[r]`` holds the cumulative outcome thresholds used when the
    parents take the configuration of mixed-radix rank r (first parent most
    significant, matching the conditional-table row order).
    """

    parents: tuple[int, ...]
    thresholds: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("an equation needs at least one threshold row")
        width = len(self.thresholds[0])
        if width < 2:
            raise ValueError("threshold rows need at least two outcomes")
        clamped = []
        for r, row in enumerate(self.thresholds):
            if len(row) != width:
                raise ValueError(f"threshold row {r} has inconsistent length")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"threshold row {r} has a non-finite entry")
            top = max(row)
            if top > 1.0 + ROW_SUM_TOLERANCE:
                raise ValueError(f"threshold row {r} has an entry {top!r} above 1")
            # Entries that overshoot 1 within the tolerance are clamped first,
            # so the order check sees the row as it will be used.
            row = tuple(min(c, 1.0) for c in row)
            if any(b < a for a, b in zip(row, row[1:])):
                raise ValueError(f"threshold row {r} is not non-decreasing")
            if row[0] < 0.0:
                raise ValueError(f"threshold row {r} has a negative entry")
            if 1.0 - row[-1] > ROW_SUM_TOLERANCE:
                raise ValueError(f"threshold row {r} ends at {row[-1]!r}, not 1")
            # Ending at exactly 1.0 keeps a latent of 1.0 inside the last interval.
            clamped.append(row[:-1] + (1.0,))
        object.__setattr__(self, "thresholds", tuple(clamped))

    @property
    def outcome_count(self) -> int:
        return len(self.thresholds[0])


@dataclass(frozen=True)
class ThresholdEquationSystem:
    """One threshold equation per variable, each with its own latent.

    Equation i targets variable i; the latent variables are mutually
    independent and never shared between equations.
    """

    variable_names: tuple[str, ...]
    equations: tuple[ThresholdEquation, ...]

    def __post_init__(self):
        if len(self.variable_names) != len(self.equations):
            raise ValueError("need exactly one equation per variable")
        if any(not name for name in self.variable_names):
            raise ValueError("variable names must be non-empty")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("variable names must be distinct")
        n = len(self.equations)
        for i, eq in enumerate(self.equations):
            if len(set(eq.parents)) != len(eq.parents):
                raise ValueError(
                    f"equation for {self.variable_names[i]!r} repeats a parent"
                )
            for p in eq.parents:
                if p < 0 or p >= n:
                    raise ValueError(
                        f"equation for {self.variable_names[i]!r} has a bad "
                        f"parent index {p}"
                    )
        for i, eq in enumerate(self.equations):
            expected = math.prod(self.equations[p].outcome_count for p in eq.parents)
            if len(eq.thresholds) != expected:
                raise ValueError(
                    f"equation for {self.variable_names[i]!r} needs {expected} "
                    f"threshold rows, found {len(eq.thresholds)}"
                )

    @property
    def n(self) -> int:
        return len(self.equations)

    def outcome_counts(self) -> tuple[int, ...]:
        return tuple(eq.outcome_count for eq in self.equations)

    @cached_property
    def evaluation_order(self) -> tuple[int, ...]:
        """Topological order of targets; raises ``CycleError`` on feedback."""
        return tuple(_topo([eq.parents for eq in self.equations]))

    @cached_property
    def _plan(self) -> tuple[_Factor, ...]:
        """Per equation, the interval lengths of its rows as joint factors.

        Raises ``CycleError`` on feedback, since cyclic equations define no joint.
        """
        self.evaluation_order  # refuses a cycle before any factor is built
        counts = self.outcome_counts()
        plan = []
        for eq in self.equations:
            lengths = [tuple(map(sub, row, (0.0,) + row)) for row in eq.thresholds]
            plan.append(_compile(eq.parents, counts, lengths))
        return tuple(plan)

    @cached_property
    def _steps(self) -> tuple:
        """Per target in evaluation order: the target, its parents, nested rows.

        The rows nest by parent value, first parent outermost, so
        ``rows[a][b]`` is the threshold row for parent values (a, b); a
        parentless target's entry is its single row.  Raises ``CycleError``
        on feedback.
        """
        counts = self.outcome_counts()
        steps = []
        for v in self.evaluation_order:
            eq = self.equations[v]
            rows = eq.thresholds
            for p in reversed(eq.parents):
                c = counts[p]
                rows = tuple(rows[i:i + c] for i in range(0, len(rows), c))
            steps.append((v, eq.parents, rows[0]))
        return tuple(steps)

    @cached_property
    def _lanes(self) -> tuple | None:
        """``sample``'s byte-lane plan, or None when values or row ranks outgrow a byte.

        Per target in evaluation order: the target, its (parent, stride)
        pairs from its ``_plan`` factor, whose weighted sum of parent values
        is the row's mixed-radix rank, and per row its pick table (255 for
        its own rank, else 0), its guide table (see ``_guide``) and the row.
        Values must stay below ``_UNSETTLED`` and ranks below 256: systems
        with a variable of 255 or more outcomes or an equation of more than
        256 rows get None.  Raises ``CycleError`` on feedback.
        """
        counts = self.outcome_counts()
        if max(counts, default=0) >= _UNSETTLED or any(len(eq.thresholds) > 256 for eq in self.equations):
            return None
        lanes = []
        for v in self.evaluation_order:
            parents, strides, _ = self._plan[v]
            rows = tuple(
                (bytes(r) + b"\xff" + bytes(255 - r), _guide(row), row)
                for r, row in enumerate(self.equations[v].thresholds)
            )
            lanes.append((v, tuple(zip(parents, strides)), rows))
        return tuple(lanes)


def _guide(row: tuple[float, ...]) -> bytes:
    """Per leading byte h of m, the outcome every latent ``1 - m / 2**53`` in it selects.

    With X = int(c * 2**53), exact for any c in [0, 1], threshold c lies
    below the latent exactly when m < 2**53 - X: below it for every m in
    bucket h when h < (2**53 - X) >> 45, and for none when h is past that.
    At h == (2**53 - X) >> 45 it is split, unless 2**45 divides 2**53 - X;
    a bucket holding a split threshold gets ``_UNSETTLED``.  The outcome of
    a settled bucket is the number of thresholds below all of it.
    """
    ends = [2**53 - int(c * 2**53) for c in row]
    table = bytearray(256)
    top = 256
    for j, d in enumerate(ends):  # the row ascends, so the bucket bounds descend
        table[d >> _BUCKET:top] = bytes([j]) * (top - (d >> _BUCKET))
        top = d >> _BUCKET
    for d in ends:
        if d % 2**_BUCKET:
            table[d >> _BUCKET] = _UNSETTLED
    return bytes(table)


def bbn_to_sem(bbn: Bbn) -> ThresholdEquationSystem:
    """Rewrite a valid network as a threshold-equation system.

    Parentless nodes get a single row built from their prior; every row is
    the cumulative sum of its conditional row, clamped to 1, ending at 1.0.
    """
    _require_valid(bbn)
    equations = []
    for node in bbn.nodes:
        rows = tuple(
            (*(min(c, 1.0) for c in accumulate(row[:-1], initial=0.0)), 1.0)[1:] for row in node.cpt
        )
        equations.append(ThresholdEquation(parents=node.parents, thresholds=rows))
    return ThresholdEquationSystem(
        variable_names=tuple(node.name for node in bbn.nodes),
        equations=tuple(equations),
    )


def evaluate(
    sem: ThresholdEquationSystem, latents: Mapping[int, float]
) -> Assignment:
    """Resolve every variable from the latent draws, parents first.

    Outcome j is selected for variable v when ``latents[v]`` lies in
    (c_{j-1}, c_j] of the threshold row picked by v's parent values.
    """
    flat = [latents[v] for v in range(sem.n)]
    for v, u in enumerate(flat):
        if not 0.0 < u <= 1.0:
            raise ValueError(
                f"latent for {sem.variable_names[v]!r} is {u!r}, outside (0, 1]"
            )
    return next(_forward(sem._steps, flat, 1))


def _forward(steps, flat, k: int) -> Iterator[Assignment]:
    """The ``k`` assignments that ``flat`` selects, evaluated by columns.

    ``flat`` holds ``k`` latent vectors back to back, so variable v's
    latents are ``flat[v::n]``.  Each variable's values for all ``k`` draws
    come from one pass over its parents' value columns, parents first.
    """
    n = len(steps)
    if not n:
        return repeat((), k)
    columns = [None] * n
    for v, parents, rows in steps:
        selected = repeat(rows, k)
        for p in parents:
            selected = map(getitem, selected, columns[p])
        columns[v] = list(map(bisect_left, selected, flat[v::n]))
    return zip(*columns)


def sem_joint(sem: ThresholdEquationSystem, assignment: Sequence[int]) -> float:
    """Probability of a total assignment: product of selected interval lengths.

    Raises ``CycleError`` on a cyclic system.
    """
    return _probability(sem, assignment)


def check_equivalence(bbn: Bbn, sem: ThresholdEquationSystem) -> float:
    """Max absolute joint-probability gap between network and equation system.

    Both joints are enumerated in full, each value formed exactly as
    ``joint_probability`` and ``sem_joint`` form it.  When every equation
    has its node's parents, as in ``bbn_to_sem`` output, one pass builds
    both joints; otherwise the same pass runs once per model.  Raises
    ``ValueError`` beyond ``MAX_ENUMERABLE_CONFIGURATIONS`` configurations
    and ``CycleError`` when the equations form a cycle.
    """
    bbn._plan  # compiling the plan refuses an invalid network before anything else
    if tuple(node.name for node in bbn.nodes) != sem.variable_names:
        raise ValueError("network and equation system name different variables")
    counts = bbn.outcome_counts()
    if counts != sem.outcome_counts():
        raise ValueError("network and equation system disagree on outcome counts")
    plans = (bbn._plan, sem._plan)
    if all(node.parents == eq.parents for node, eq in zip(bbn.nodes, sem.equations)):
        joints = _joint(plans, counts)
    else:
        joints = [joint for plan in plans for joint in _joint((plan,), counts)]
    # Both joints are finite: validate and ThresholdEquation refuse
    # non-finite entries, so no NaN gap can hide from max.
    return max(map(abs, map(sub, *joints)))


def sample(
    sem: ThresholdEquationSystem, seed: int, count: int
) -> Counter[Assignment]:
    """Tally ``count`` forward evaluations under seeded latent draws.

    The generator is the stdlib Mersenne Twister (``random.Random``); each
    draw takes one uniform per variable in ascending variable order, mapped
    from [0, 1) to (0, 1].  Fixed (seed, count) reproduces tallies exactly,
    in first-drawn order.  Draws are evaluated in chunks, which changes
    neither the stream nor the tallies.  Within a chunk of ``CHUNK`` draws,
    the bytes of ``getrandbits(64 * latents)`` are the words ``random()``
    would read, and the guide tables of ``ThresholdEquationSystem._lanes``
    settle each latent from its leading byte, or flag it for an exact
    bisection.  A system without that plan evaluates float latents as
    ``evaluate`` does, ``CHUNK // 4`` draws at a time.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    n = sem.n
    lanes = sem._lanes
    # A float latent and its list slot take four times a lane latent's 8
    # bytes, so both passes hold about the same memory per chunk.
    size = CHUNK if lanes is not None else CHUNK // 4
    tally: Counter[Assignment] = Counter()
    for done in range(0, count, size):
        k = min(size, count - done)
        if lanes is None:
            flat = list(map((1.0).__sub__, starmap(rng.random, repeat((), k * n))))
            tally.update(_forward(sem._steps, flat, k))
        else:
            tally.update(_lane_forward(lanes, rng.getrandbits(64 * k * n).to_bytes(8 * k * n, "little"), k))
    return tally


def _lane_forward(lanes, raw: bytes, k: int) -> Iterator[Assignment]:
    """The ``k`` assignments that the generator output ``raw`` selects.

    ``raw`` holds 8 bytes per latent, draw after draw, each latent's two
    32-bit words little-endian: ``random()`` reads m = (w1 >> 5) << 26 |
    w2 >> 6 from them, so m's leading byte is w1's, at offset 3.  Per
    variable, parents first, the row ranks are the stride-weighted sum of
    the parents' value columns read as integers (a rank stays below 256, so
    no byte carries into the next), and each row's guide table is applied
    to the draws its pick table selects.  Latents left ``_UNSETTLED`` are
    bisected in their row.
    """
    n = len(lanes)
    if not n:
        return repeat((), k)
    columns = [b""] * n
    for v, parents, rows in lanes:
        lead = raw[8 * v + 3::8 * n]
        ranks = sum(stride * int.from_bytes(columns[p], "little") for p, stride in parents).to_bytes(k, "little")
        values = 0
        for pick, guide, _ in rows:
            chosen = int.from_bytes(ranks.translate(pick), "little")
            values |= chosen & int.from_bytes(lead.translate(guide), "little")
        column = bytearray(values.to_bytes(k, "little"))
        i = column.find(_UNSETTLED)
        while i >= 0:
            at = 8 * (i * n + v)
            words = int.from_bytes(raw[at:at + 8], "little")  # w1 | w2 << 32
            m = (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38
            column[i] = bisect_left(rows[ranks[i]][2], 1.0 - m / 2**53)
            i = column.find(_UNSETTLED, i + 1)
        columns[v] = column
    return zip(*columns)


def _structure(names: tuple[str, ...], parent_lists) -> StructureMatrix:
    """Equation ``f_<name>`` involves variable i and the parents in its list i."""
    return StructureMatrix(
        variable_names=names,
        equation_labels=tuple(f"f_{name}" for name in names),
        rows=tuple(frozenset((i, *parents)) for i, parents in enumerate(parent_lists)),
    )


def sem_structure(sem: ThresholdEquationSystem) -> StructureMatrix:
    """Participation matrix: each equation involves its target and parents.

    Latent variables stay implicit; they are never columns.
    """
    return _structure(sem.variable_names, [eq.parents for eq in sem.equations])


def roundtrip_check(bbn: Bbn) -> bool:
    """Whether the causal ordering of the network's equations restores its DAG.

    The equations are those of ``bbn_to_sem(bbn)``, whose structure depends
    only on the parent lists, so it is read off them without converting.
    True iff every cluster has degree one and the variable-level precedence
    edges equal the network's arcs exactly.  Raises ``InvalidBbnError`` if
    ``validate`` refuses the network.
    """
    _require_valid(bbn)
    names = tuple(node.name for node in bbn.nodes)
    ordering = causal_ordering(_structure(names, [node.parents for node in bbn.nodes]))
    if any(cluster.degree != 1 for cluster in ordering.clusters):
        return False
    return ordering.variable_edges == bbn.edges


# ---------------------------------------------------------------------------
# File format:
# {"equations": [{"target":..., "parents":[...], "thresholds":[[...],...]}]}
# Equation order fixes variable indices; row order matches the conditional-
# table convention (first parent most significant).

def sem_from_dict(doc: object) -> ThresholdEquationSystem:
    names, equations = [], []
    for target, _, parents, rows in _named_items(doc, "equation-system", "equation", "target", "thresholds"):
        try:
            equations.append(ThresholdEquation(parents, rows))
        except ValueError as exc:
            raise FormatError(f"equation {target!r}: {exc}") from None
        names.append(target)
    try:
        return ThresholdEquationSystem(tuple(names), tuple(equations))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def sem_to_dict(sem: ThresholdEquationSystem) -> dict:
    return {
        "equations": [
            {
                "target": name,
                "parents": [sem.variable_names[p] for p in eq.parents],
                "thresholds": [list(row) for row in eq.thresholds],
            }
            for name, eq in zip(sem.variable_names, sem.equations)
        ]
    }


def load_sem(path: str | Path) -> ThresholdEquationSystem:
    return sem_from_dict(_load_json(path))
