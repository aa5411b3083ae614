"""Structure matrices for simultaneous structural equation systems.

A system of n equations over n variables is recorded qualitatively: entry
(i, j) says only whether variable j participates in equation i.  Numeric
coefficients and functional forms are deliberately absent; self-containment
and the causal ordering depend on participation alone.  Each equation is
understood to carry its own implicit error term, which is never a column.

Equations are assumed to be solvable for the variables they mention; the
boolean representation cannot check solvability, so it is a documented
assumption rather than a verified property.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import FormatError, NotSelfContainedError


# Stores one field of a record past its refusing ``__setattr__``.  Unlike
# ``self.__dict__.update``, it builds no dict per record: the values stay
# inline, 105 bytes for a three-field record against 248.
_store = object.__setattr__


class _Record:
    """Base of the package's records: immutable values compared by their fields.

    A subclass names its fields in ``_fields``.  The shared constructor
    binds them positionally or by keyword, in that order, each exactly
    once.  A subclass that checks its fields defines its own ``__init__``
    and stores each one with ``_store``, because ``__setattr__`` and
    ``__delattr__`` refuse.  Equality, hashing, ``repr`` and pickling read
    the fields in that order; a record equals only a record of its own
    class, and values a ``cached_property`` keeps take no part.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__} takes each of its fields ({', '.join(fields)}) once")
        for name, value in zip(fields, values):
            _store(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")


def _require_names(names: Sequence[str], what: str) -> None:
    """Raise ``ValueError`` unless ``names`` are non-empty and distinct.

    ``what`` says whose names they are, such as ``"variable names"``; every
    record's names, labels and targets are checked here.
    """
    if not all(names):
        raise ValueError(f"{what} must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"{what} must be distinct")


class StructureMatrix(_Record):
    """Boolean incidence of variables in equations, always square.

    ``rows[i]`` is the set of variable indices participating in equation i.
    Variable and equation identity is positional; names and labels are
    carried for presentation and file IO.
    """

    _fields = ("variable_names", "equation_labels", "rows")

    def __init__(
        self,
        variable_names: tuple[str, ...],
        equation_labels: tuple[str, ...],
        rows: tuple[frozenset[int], ...],
    ):
        n = len(variable_names)
        if len(equation_labels) != n or len(rows) != n:
            raise ValueError(
                f"system must be square: {n} variables, "
                f"{len(equation_labels)} equations, {len(rows)} rows"
            )
        _require_names(variable_names, "variable names")
        _require_names(equation_labels, "equation labels")
        # One pass over the set of every entry; the rows are walked one by
        # one only on refusal, to name the first equation at fault.
        used = frozenset().union(*rows)
        if not all(rows) or used and (min(used) < 0 or max(used) >= n):
            for i, row in enumerate(rows):
                if not row:
                    raise ValueError(
                        f"equation {equation_labels[i]!r} mentions no variables"
                    )
                if any(v < 0 or v >= n for v in row):
                    raise ValueError(
                        f"equation {equation_labels[i]!r} references a variable "
                        "index out of range"
                    )
        _store(self, "variable_names", variable_names)
        _store(self, "equation_labels", equation_labels)
        _store(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.variable_names)

    @cached_property
    def _report(self) -> SystemReport:
        """The verdict of ``check_system``; a matrix is immutable, so it is computed once."""
        return _check_system(self)

    @cached_property
    def _analysis(self):
        """The causal ordering's flat analysis of a self-contained matrix, computed once.

        A matrix that ``apply_change`` made from an ordered one holds that
        one's analysis and the edited equation as ``_edit_of``, and its own
        analysis reorders only the clusters the edit can move.
        """
        from .ordering import _analyse

        return _analyse(self)

    def equation_index(self, label: str) -> int:
        try:
            return self.equation_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown equation {label!r}") from None

    @staticmethod
    def from_names(
        variables: Iterable[str],
        equations: Iterable[tuple[str, Iterable[str]]],
    ) -> StructureMatrix:
        """Build a matrix from variable names and (label, var names) pairs."""
        variable_names = tuple(variables)
        index = {name: i for i, name in enumerate(variable_names)}
        labels = []
        rows = []
        for label, var_names in equations:
            labels.append(label)
            try:
                rows.append(frozenset(index[name] for name in var_names))
            except KeyError as exc:
                raise ValueError(
                    f"equation {label!r} references unknown variable {exc.args[0]!r}"
                ) from None
        return StructureMatrix(variable_names, tuple(labels), tuple(rows))


class EquationSubset(_Record):
    """A set of equations together with the variables they mention."""

    _fields = ("equations", "variables")

    def describe(self, matrix: StructureMatrix) -> str:
        eqs = ", ".join(matrix.equation_labels[e] for e in sorted(self.equations))
        vs = ", ".join(matrix.variable_names[v] for v in sorted(self.variables))
        return f"{{{eqs}}} covering variables {{{vs}}}"


class SystemReport(_Record):
    """Outcome of ``check_system`` with witnesses when the check fails.

    A system is self-contained exactly when it has no ``violation``: the
    first equation, in file order, that a maximum matching leaves unmatched,
    with every equation reachable from it along alternating paths, one more
    equation than variables.  ``unused_variables`` lists the variables in no
    equation, which only a system with a violation can have.  When exactly
    one equation is left over, as after any edit of a self-contained
    system, the violation is the part every maximum matching leaves
    over-determined, so it does not depend on the matching.

    ``matching[e]`` is the variable a maximum matching gives equation e, or
    -1 if none: the matching that decided the report.  It is a value the
    report keeps, not a field, so it takes no part in ``==``, hashing,
    ``repr`` or pickling.  A report that ``apply_change`` seeded holds the
    matching its one augmenting search left, which can differ from the one
    a check of an equal matrix built from scratch finds; a report that lost
    it in a pickle round trip matches its matrix afresh.
    """

    _fields = ("matrix", "unused_variables", "violation")

    @cached_property
    def matching(self) -> tuple[int, ...]:
        from .matching import maximum_matching

        return tuple(maximum_matching(self.matrix.rows)[0])

    @property
    def self_contained(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.self_contained:
            return "self-contained"
        parts = []
        if self.unused_variables:
            names = ", ".join(
                self.matrix.variable_names[v] for v in self.unused_variables
            )
            parts.append(f"variables in no equation: {names}")
        parts.append(
            "equation subset with fewer variables than equations: "
            + self.violation.describe(self.matrix)
        )
        return "not self-contained; " + "; ".join(parts)


def check_system(matrix: StructureMatrix) -> SystemReport:
    """Diagnose whether the full system is self-contained.

    The system is self-contained exactly when the maximum matching is
    perfect.  Otherwise the violation is the reach of the matching's first
    failed augmenting search: the lowest unmatched equation and every
    equation reachable from it along alternating paths.  Only then can a
    variable occur in no equation, so only then are the rows scanned for one.

    The report is computed on the first call for a matrix and kept on it.
    A matrix that ``apply_change`` made from a self-contained one holds a
    report already: replacing one row leaves at most one equation over, so
    one augmenting search over the original's matching decided it.  That
    report equals the one a check from scratch gives; only its kept
    ``matching`` can differ.
    """
    return matrix._report


def _check_system(matrix: StructureMatrix) -> SystemReport:
    # Imported here, so that the network commands, which load this module
    # only for its file and record helpers, do not load the matching.
    from .matching import maximum_matching

    return _system_report(matrix, *maximum_matching(matrix.rows))


def _system_report(
    matrix: StructureMatrix,
    match: Sequence[int],
    reach: tuple[frozenset[int], frozenset[int]] | None,
) -> SystemReport:
    """The report of ``matrix`` from a maximum matching of its rows and that
    matching's reach, as ``maximum_matching`` returns them; the one site
    every report is built at."""
    unused: tuple[int, ...] = ()
    violation = None
    if reach is not None:
        used = frozenset().union(*matrix.rows)
        unused = tuple(v for v in range(matrix.n) if v not in used)
        violation = EquationSubset(*reach)
    report = SystemReport(matrix, unused, violation)
    _store(report, "matching", tuple(match))
    return report


def _require_self_contained(matrix: StructureMatrix, context: str = "") -> tuple[int, ...]:
    """The perfect matching of a self-contained system; the structure side's one gate.

    Raises ``NotSelfContainedError`` whose ``report`` is ``check_system``'s
    and whose message is ``context`` followed by that report's description.
    """
    report = check_system(matrix)
    if not report.self_contained:
        raise NotSelfContainedError(context + report.describe(), report)
    return report.matching


def precedence(matrix: StructureMatrix, match: Sequence[int]) -> list[tuple[int, ...]]:
    """Per equation, the equations matched to its other variables.

    ``match`` is a perfect matching (``match[e]`` the variable equation e
    determines); equation e can be solved only after the equations it lists.
    Each list is a tuple of ints, which the collector untracks at its first
    pass instead of promoting one list per equation.
    """
    equation_of = [0] * len(match)
    for e, v in enumerate(match):
        equation_of[v] = e
    return [tuple([equation_of[u] for u in row if u != v]) for row, v in zip(matrix.rows, match)]


# ---------------------------------------------------------------------------
# File format: {"variables": [...], "equations": [{"label":..., "vars":[...]}]}

def system_from_dict(doc: object) -> StructureMatrix:
    """Parse the system file document; list order fixes all indices."""
    doc = _json_object(doc, {"variables", "equations"}, "system document")
    variables = _json_strings(doc.get("variables"), '"variables"')
    equations = doc.get("equations")
    if not isinstance(equations, list):
        raise FormatError('"equations" must be a list')
    parsed = []
    keys = {"label", "vars"}
    for k, eq in enumerate(equations):
        label = _json_object(eq, keys, "equation {}", k).get("label")
        if not isinstance(label, str):
            raise FormatError(f'equation {k}: "label" must be a non-empty string')
        parsed.append((label, _json_strings(eq.get("vars"), 'equation {!r}: "vars"', label)))
    try:
        return StructureMatrix.from_names(variables, parsed)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _load_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file without NaN or Infinity; any failure is a ``FormatError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as exc:  # not UTF-8
        raise FormatError(str(exc)) from None
    try:
        return _DECODER.decode(text)
    except (FormatError, json.JSONDecodeError) as exc:
        raise FormatError(str(exc)) from None
    except ValueError:  # int() refused a literal, in words that differ between Python versions
        raise FormatError(f"integer literal over {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None


def _json_object(value: object, keys: set[str], what: str, arg: object = None) -> dict:
    """``value`` if it is a JSON object whose keys are among ``keys``; else ``FormatError``.

    The message names the value as ``what.format(arg)``, formatted only on
    refusal, so a reader builds no message for an item that checks out.
    """
    if not isinstance(value, dict):
        raise FormatError(f"{what.format(arg)} must be a JSON object")
    if not value.keys() <= keys:
        raise FormatError(f"unknown keys in {what.format(arg)}: {sorted(value.keys() - keys)}")
    return value


def _json_strings(value: object, what: str, arg: object = None) -> list:
    """``value`` if it is a JSON list of strings; else ``FormatError``, named as by ``_json_object``."""
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise FormatError(f"{what.format(arg)} must be a list of strings")
    return value


def _json_text(doc: object) -> str:
    """A document as two-space-indented JSON ending in a newline."""
    return json.dumps(doc, indent=2) + "\n"


def _write_text(path: str | Path, text: str) -> None:
    """Replace the contents of ``path`` with ``text`` as UTF-8, in place.

    The text is encoded before the file is opened, so text that UTF-8
    cannot encode (a lone surrogate) raises ``UnicodeEncodeError`` and
    leaves the target untouched.  The file is opened without ``O_TRUNC``
    and cut at the end of the write instead: ext4's ``auto_da_alloc``
    replace-via-truncate heuristic (``Documentation/admin-guide/ext4.rst``
    in the Linux tree) flushes a file truncated to zero and rewritten when
    it is closed, which costs tens of milliseconds per overwrite.  Like
    ``O_TRUNC``, the in-place write keeps the inode, its mode, its hard
    links and a symlink to it.  Only a regular file is truncated, so a
    device or FIFO target works.  The write is neither atomic nor fsynced.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(data)
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def load_system(path: str | Path) -> StructureMatrix:
    return system_from_dict(_load_json(path))
