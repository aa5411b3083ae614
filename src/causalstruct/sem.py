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
behind ``random() == m / 2**53``: the latent 1 - m / 2**53 passes a cut
point c exactly when m < d, c's bucket end 2**53 * (1 - c) rounded up, so
its outcome is the number of its row's ends above m.  Most draws are
settled from m's leading byte alone, as with Chen and Asau's guide tables
(AIIE Transactions 6(2), 1974), indexed by the uniform's leading digits: a
variable's rows share one combined 256-entry table per group of rows,
indexed by a draw's row rank and its leading byte's class, so a variable
costs one table pass per group, not per row; a draw the byte cannot
settle has its row's ends counted exactly, and selects what ``evaluate``
would.  Systems whose values or row ranks do not fit a byte sample
through ``evaluate``'s pass.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, repeat, starmap
from operator import getitem, itemgetter, le, sub
from pathlib import Path
from struct import Struct
from typing import Iterator, Mapping, Sequence

from .bbn import ROW_SUM_TOLERANCE, Assignment, Bbn
from .bbn import joint_probability  # noqa: F401  (bench/test_bench.py::test_tracer_restores_every_binding)
from .bbn import _compile, _Factor, _joint, _named_doc, _named_items, _probability, _require_valid
from .errors import FormatError
from .structure import StructureMatrix, _load_json, _Record, _require_names, _store
from .graphs import topological_order as _topo

# Draws per byte-lane pass of ``sample``: enough to spread each variable's
# per-pass cost thin, few enough to keep memory flat in the count.  At 8
# bytes of generator output per latent, 4096 draws take the memory that
# 1024 float latents do.
CHUNK = 4096

# A latent's leading byte is m >> 45, so bucket h holds m in [h, h + 1) * 2**45.
_BUCKET = 45
# A table entry for a class of leading bytes that holds more than one outcome.
_UNSETTLED = 255


class ThresholdEquation(_Record):
    """Deterministic equation for one variable: its parents and its rows.

    The equation carries no variable index; its position in a
    ``ThresholdEquationSystem`` says which variable it selects.
    ``thresholds[r]`` holds the cumulative outcome thresholds used when the
    parents take the configuration of mixed-radix rank r (first parent most
    significant, matching the conditional-table row order).
    """

    _fields = ("parents", "thresholds")

    def __init__(self, parents: tuple[int, ...], thresholds: tuple[tuple[float, ...], ...]):
        if not thresholds:
            raise ValueError("an equation needs at least one threshold row")
        width = len(thresholds[0])
        if width < 2:
            raise ValueError("threshold rows need at least two outcomes")
        clamped = []
        for r, row in enumerate(thresholds):
            if len(row) != width:
                raise ValueError(f"threshold row {r} has inconsistent length")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"threshold row {r} has a non-finite entry")
            top = max(row)
            if top > 1.0 + ROW_SUM_TOLERANCE:
                raise ValueError(f"threshold row {r} has an entry {top!r} above 1")
            # Entries that overshoot 1 within the tolerance are clamped first,
            # so the order check sees the row as it will be used.
            row = tuple([min(c, 1.0) for c in row]) if top > 1.0 else tuple(row)
            if not all(map(le, row, row[1:])):
                raise ValueError(f"threshold row {r} is not non-decreasing")
            if row[0] < 0.0:
                raise ValueError(f"threshold row {r} has a negative entry")
            if 1.0 - row[-1] > ROW_SUM_TOLERANCE:
                raise ValueError(f"threshold row {r} ends at {row[-1]!r}, not 1")
            # Ending at exactly 1.0 keeps a latent of 1.0 inside the last interval.
            clamped.append(row[:-1] + (1.0,))
        _store(self, "parents", parents)
        _store(self, "thresholds", tuple(clamped))

    @property
    def outcome_count(self) -> int:
        return len(self.thresholds[0])


class ThresholdEquationSystem(_Record):
    """One threshold equation per variable, each with its own latent.

    Equation i targets variable i; the latent variables are mutually
    independent and never shared between equations.
    """

    _fields = ("variable_names", "equations")

    def __init__(self, variable_names: tuple[str, ...], equations: tuple[ThresholdEquation, ...]):
        if len(variable_names) != len(equations):
            raise ValueError("need exactly one equation per variable")
        _require_names(variable_names, "variable names")
        n = len(equations)
        for i, eq in enumerate(equations):
            if len(set(eq.parents)) != len(eq.parents):
                raise ValueError(
                    f"equation for {variable_names[i]!r} repeats a parent"
                )
            for p in eq.parents:
                if p < 0 or p >= n:
                    raise ValueError(
                        f"equation for {variable_names[i]!r} has a bad "
                        f"parent index {p}"
                    )
        for i, eq in enumerate(equations):
            expected = math.prod(equations[p].outcome_count for p in eq.parents)
            if len(eq.thresholds) != expected:
                raise ValueError(
                    f"equation for {variable_names[i]!r} needs {expected} "
                    f"threshold rows, found {len(eq.thresholds)}"
                )
        _store(self, "variable_names", variable_names)
        _store(self, "equations", equations)

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
        pairs from its ``_plan`` factor with each stride times the scale,
        and its groups of consecutive rows (see ``_group``).  Each row is
        held as its ascending bucket ends, d = 2**53 - int(c * 2**53) for
        every cut point c but the last: a latent 1 - m / 2**53 passes c
        exactly when m < d, so its outcome is the number of ends above m.
        That count can change only at a leading byte d >> 45 or, when d
        splits that byte's bucket, at the next one; these bounds of a
        group's rows cut the leading byte into C classes, and g rows fill
        g * C entries of one 256-entry table.  Each row joins the group
        before it while (g + 1) * C <= 256 holds, which leaves room for a
        row of zeros.  When one group holds every row, the scale is C: the
        scaled strides sum a draw's parent values to rank * C, the first
        table entry of its row.  Otherwise the scale is 1, and each group's
        rank map places the ranks.  Values must stay below ``_UNSETTLED``
        and ranks below 256: systems with a variable of 255 or more
        outcomes or an equation of more than 256 rows get None.  Raises
        ``CycleError`` on feedback.
        """
        counts = self.outcome_counts()
        if max(counts, default=0) >= _UNSETTLED or any(len(eq.thresholds) > 256 for eq in self.equations):
            return None
        lanes = []
        for v in self.evaluation_order:
            parents, strides, _ = self._plan[v]
            spans = [(0, set(), [])]  # per group: its first rank, its rows' bucket bounds, its rows' ends
            for r, row in enumerate(self.equations[v].thresholds):
                ends = tuple(2**53 - int(c * 2**53) for c in reversed(row[:-1]))
                cut = {h for d in ends for h in (d >> _BUCKET, -(-d >> _BUCKET)) if 0 < h < 256}
                if r > spans[-1][0] and (r - spans[-1][0] + 2) * (len(spans[-1][1] | cut) + 1) > 256:
                    spans.append((r, set(), []))
                spans[-1][1].update(cut)
                spans[-1][2].append(ends)
            scale = 1 if len(spans) > 1 else len(spans[0][1]) + 1
            groups = tuple(_group(rows, bounds, lo, len(spans) > 1) for lo, bounds, rows in spans)
            lanes.append((v, tuple((p, stride * scale) for p, stride in zip(parents, strides)), groups))
        return tuple(lanes)


def _group(rows: list, bounds: set[int], lo: int, shared: bool) -> tuple:
    """The (rank map, class map, table, ends by index) of ``rows``, of ranks lo, lo + 1, ....

    ``rows`` holds each row's ascending bucket ends (see ``_lanes``).  The
    class map sends each leading byte to its class, the run of bytes
    [a, b) between two of the ``bounds`` its byte lies in, numbered up
    from 0; the class holds the m in [a * 2**45, b * 2**45).  A latent
    1 - m / 2**53 passes a cut point exactly when m is below its end d, so
    when no end lies strictly inside the class, every latent of the class
    in a row selects the number of the row's ends at or above b * 2**45,
    and entry (local rank * C + class) of the table holds it; otherwise the
    entry is ``_UNSETTLED``.  Ends by index gives each table index its
    row's ends, for the exact count.  A group that shares its variable has
    a rank map, sending its ranks to local rank * C and every other rank
    to 256 - C, the row of zero entries that ends the table, so the
    groups' values OR together; a lone row of 128 or more bounds merges
    its classes in pairs to leave room for that row.
    """
    starts = [0, *sorted(bounds)][::2 if shared and len(bounds) >= 128 else 1]
    stops = starts[1:] + [256]
    classmap = b"".join(bytes([c]) * (b - a) for c, (a, b) in enumerate(zip(starts, stops)))
    table = bytes(
        len(ends) - below if bisect_right(ends, a << _BUCKET) == below else _UNSETTLED
        for ends in rows
        for a, b in zip(starts, stops)
        for below in [bisect_left(ends, b << _BUCKET)]  # the ends at or below a << 45, and any strictly inside
    )
    sentinel = bytes([256 - len(starts)])  # the first index of the row of zeros that ends the table
    rankmap = (sentinel * lo + bytes(range(0, len(table), len(starts)))).ljust(256, sentinel) if shared else None
    return rankmap, classmap, table.ljust(256, b"\0"), tuple(ends for ends in rows for _ in starts)


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
    return next(_forward(sem._steps, flat, 1), ())  # a system of no variables selects no columns


def _forward(steps, flat, k: int) -> Iterator[Assignment]:
    """The ``k`` assignments that ``flat`` selects, evaluated by columns.

    ``flat`` holds ``k`` latent vectors back to back, so variable v's
    latents are ``flat[v::n]``.  Each variable's values for all ``k`` draws
    come from one pass over its parents' value columns, parents first.
    """
    n = len(steps)
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
    would read, and the grouped tables of ``ThresholdEquationSystem._lanes``
    settle each latent from its row and its leading byte, or flag it for an
    exact bisection.  A system without that plan evaluates float latents as
    ``evaluate`` does, ``CHUNK // 4`` draws at a time.
    """
    return _tally(sem, seed, count, "B")


def _tally(sem: ThresholdEquationSystem, seed: int, count: int, code: str) -> Counter:
    """``sample``'s tally, each byte-lane draw keyed by the ``struct`` code ``code``.

    With ``"B"`` a draw's key is its tuple of values; with ``"s"`` it is one
    ``bytes`` object holding them, which hashes once, compares by ``memcmp``
    and sorts as the tuple does.  Draws of the float pass, and the one draw
    of a system of no variables, are tuples either way.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n = sem.n
    if not n:  # every draw is the empty assignment, and iter_unpack refuses an empty struct
        return Counter({(): count})
    rng = random.Random(seed)
    lanes = sem._lanes
    # A float latent and its list slot take four times a lane latent's 8
    # bytes, so both passes hold about the same memory per chunk.
    size = CHUNK if lanes is not None else CHUNK // 4
    unpack = Struct(f"{n}{code}").iter_unpack
    tally: Counter = Counter()
    for done in range(0, count, size):
        k = min(size, count - done)
        if lanes is None:
            flat = list(map((1.0).__sub__, starmap(rng.random, repeat((), k * n))))
            tally.update(_forward(sem._steps, flat, k))
        else:
            keys = unpack(_lane_forward(lanes, rng.getrandbits(64 * k * n).to_bytes(8 * k * n, "little"), k))
            tally.update(map(itemgetter(0), keys) if code == "s" else keys)
    return tally


def _lane_forward(lanes, raw: bytes, k: int) -> bytearray:
    """The values of the ``k`` draws that the generator output ``raw`` selects.

    The result holds one byte per value, draw after draw, so draw i's
    values are ``result[i * n:(i + 1) * n]``.  ``raw`` holds 8 bytes per
    latent in the same order, each latent's two 32-bit words little-endian:
    ``random()`` reads m = (w1 >> 5) << 26 | w2 >> 6 from them, so m's
    leading byte is w1's, at offset 3.  Per variable, parents first, each
    finished value column is kept as one integer, and the scaled strides
    weight the parents' columns into one integer of ranks (a byte never
    passes 255, so none carries into the next).  Per group of rows, each
    draw's table index is its rank's entry in the rank map (or the scaled
    rank itself, for a lone group) plus its leading byte's class; the
    table gives its value, and the groups' values OR together.  A latent
    left ``_UNSETTLED`` takes the number of its row's ends above m, since
    1 - m / 2**53 passes a cut point exactly when m is below its end d.
    """
    n = len(lanes)
    draws = bytearray(k * n)
    columns = [0] * n
    for v, parents, groups in lanes:
        lead = raw[8 * v + 3::8 * n]
        ranks = sum(stride * columns[p] for p, stride in parents)
        where = ranks.to_bytes(k, "little") if len(groups) > 1 else b""  # the rank maps read ranks as bytes
        for rankmap, classmap, table, row_ends in groups:
            base = int.from_bytes(where.translate(rankmap), "little") if rankmap else ranks
            index = (base + int.from_bytes(lead.translate(classmap), "little")).to_bytes(k, "little")
            column = bytearray(index.translate(table))
            i = column.find(_UNSETTLED)
            while i >= 0:
                at = 8 * (i * n + v)
                words = int.from_bytes(raw[at:at + 8], "little")  # w1 | w2 << 32
                ends = row_ends[index[i]]
                column[i] = len(ends) - bisect_right(ends, (words & 0xFFFFFFFF) >> 5 << 26 | words >> 38)
                i = column.find(_UNSETTLED, i + 1)
            columns[v] |= int.from_bytes(column, "little")
        draws[v::n] = column if len(groups) == 1 else columns[v].to_bytes(k, "little")
    return draws


def sem_structure(sem: ThresholdEquationSystem) -> StructureMatrix:
    """Participation matrix: equation ``f_<name>`` involves its target and parents.

    Latent variables stay implicit; they are never columns.
    """
    names = sem.variable_names
    return StructureMatrix(
        variable_names=names,
        equation_labels=tuple(f"f_{name}" for name in names),
        rows=tuple(frozenset((i, *eq.parents)) for i, eq in enumerate(sem.equations)),
    )


def roundtrip_check(bbn: Bbn) -> bool:
    """Whether the causal ordering of the network's equations restores its DAG.

    It does for every network ``validate`` accepts.  Equation i of
    ``bbn_to_sem(bbn)`` involves variable i and its parents, so matching each
    equation to its own target is a perfect matching.  Under it, equation i
    follows equation p exactly when p is a parent of i: the precedence graph
    is the parent graph, which ``validate`` has proved acyclic (a node among
    its own parents is a cycle) and free of repeated parents.  So every
    cluster holds one equation and, as the ordering does not depend on the
    matching (see ``ordering``), the variable-level edges are the network's
    arcs.  Returns True; raises ``InvalidBbnError`` if ``validate`` refuses
    the network.
    """
    _require_valid(bbn)
    return True


# ---------------------------------------------------------------------------
# File format: the network file's layout (``bbn._named_items``) with
# "equations" for "nodes", "target" for "name", "thresholds" for "cpt" and
# no "outcomes".  Equation order fixes variable indices; row order matches
# the conditional-table convention (first parent most significant).

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
    items = [(name, {}, eq.parents, eq.thresholds) for name, eq in zip(sem.variable_names, sem.equations)]
    return _named_doc("equation", "target", "thresholds", items)


def load_sem(path: str | Path) -> ThresholdEquationSystem:
    return sem_from_dict(_load_json(path))
