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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import FormatError, NotSelfContainedError
from .matching import maximum_matching


@dataclass(frozen=True)
class StructureMatrix:
    """Boolean incidence of variables in equations, always square.

    ``rows[i]`` is the set of variable indices participating in equation i.
    Variable and equation identity is positional; names and labels are
    carried for presentation and file IO.
    """

    variable_names: tuple[str, ...]
    equation_labels: tuple[str, ...]
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.variable_names)
        if len(self.equation_labels) != n or len(self.rows) != n:
            raise ValueError(
                f"system must be square: {n} variables, "
                f"{len(self.equation_labels)} equations, {len(self.rows)} rows"
            )
        if any(not name for name in self.variable_names):
            raise ValueError("variable names must be non-empty")
        if len(set(self.variable_names)) != n:
            raise ValueError("variable names must be distinct")
        if len(set(self.equation_labels)) != n:
            raise ValueError("equation labels must be distinct")
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(
                    f"equation {self.equation_labels[i]!r} mentions no variables"
                )
            if any(v < 0 or v >= n for v in row):
                raise ValueError(
                    f"equation {self.equation_labels[i]!r} references a variable "
                    "index out of range"
                )

    @property
    def n(self) -> int:
        return len(self.variable_names)

    def entry(self, i: int, j: int) -> bool:
        """Whether variable j participates in equation i."""
        return j in self.rows[i]

    @cached_property
    def _name_to_var(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variable_names)}

    @cached_property
    def _label_to_eq(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.equation_labels)}

    def variable_index(self, name: str) -> int:
        try:
            return self._name_to_var[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def equation_index(self, label: str) -> int:
        try:
            return self._label_to_eq[label]
        except KeyError:
            raise KeyError(f"unknown equation {label!r}") from None

    def permuted(self, row_perm: Iterable[int], col_perm: Iterable[int]) -> StructureMatrix:
        """Reorder equations by ``row_perm`` and variables by ``col_perm``.

        ``row_perm[k]`` names the old equation placed at new position k, and
        likewise for columns.
        """
        row_perm = tuple(row_perm)
        col_perm = tuple(col_perm)
        if sorted(row_perm) != list(range(self.n)) or sorted(col_perm) != list(range(self.n)):
            raise ValueError("permutations must cover all indices exactly once")
        new_col = {old: new for new, old in enumerate(col_perm)}
        return StructureMatrix(
            variable_names=tuple(self.variable_names[j] for j in col_perm),
            equation_labels=tuple(self.equation_labels[i] for i in row_perm),
            rows=tuple(
                frozenset(new_col[v] for v in self.rows[i]) for i in row_perm
            ),
        )

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


@dataclass(frozen=True)
class EquationSubset:
    """A set of equations together with the variables they mention."""

    equations: frozenset[int]
    variables: frozenset[int]

    def describe(self, matrix: StructureMatrix) -> str:
        eqs = ", ".join(matrix.equation_labels[e] for e in sorted(self.equations))
        vs = ", ".join(matrix.variable_names[v] for v in sorted(self.variables))
        return f"{{{eqs}}} covering variables {{{vs}}}"


@dataclass(frozen=True)
class SystemReport:
    """Outcome of ``check_system`` with witnesses when the check fails.

    A system that is not self-contained always has a ``violation``: the
    first equation, in file order, that a maximum matching leaves unmatched,
    with every equation reachable from it along alternating paths.  It has
    exactly one more equation than variables.  ``unused_variables`` lists
    the variables in no equation, which only such a system can have.
    ``matching[e]`` is the variable the matching gives equation e, or -1 if
    none.
    """

    matrix: StructureMatrix
    self_contained: bool
    unused_variables: tuple[int, ...]
    violation: EquationSubset | None
    matching: tuple[int, ...]

    def describe(self) -> str:
        if self.self_contained:
            return "self-contained"
        parts = []
        if self.unused_variables:
            names = ", ".join(
                self.matrix.variable_names[v] for v in self.unused_variables
            )
            parts.append(f"variables in no equation: {names}")
        if self.violation is not None:
            parts.append(
                "equation subset with fewer variables than equations: "
                + self.violation.describe(self.matrix)
            )
        return "not self-contained; " + "; ".join(parts)


def variables_of(matrix: StructureMatrix, subset: Iterable[int]) -> frozenset[int]:
    """Union of the variables participating in the given equations."""
    result: set[int] = set()
    for e in subset:
        if e < 0 or e >= matrix.n:
            raise IndexError(f"equation index {e} out of range for n={matrix.n}")
        result |= matrix.rows[e]
    return frozenset(result)


def check_system(matrix: StructureMatrix) -> SystemReport:
    """Diagnose whether the full system is self-contained.

    The system is self-contained exactly when the maximum matching is
    perfect.  Otherwise the violation is the reach of the matching's first
    failed augmenting search: the lowest unmatched equation and every
    equation reachable from it along alternating paths.  Only then can a
    variable occur in no equation, so only then are the rows scanned for one.
    """
    match, reach = maximum_matching(matrix.n, [sorted(row) for row in matrix.rows])
    unused: tuple[int, ...] = ()
    violation = None
    if reach is not None:
        used = variables_of(matrix, range(matrix.n))
        unused = tuple(v for v in range(matrix.n) if v not in used)
        violation = EquationSubset(*reach)
    return SystemReport(
        matrix=matrix,
        self_contained=reach is None,
        unused_variables=unused,
        violation=violation,
        matching=tuple(match),
    )


def _require_self_contained(matrix: StructureMatrix, context: str = "") -> tuple[int, ...]:
    """The perfect matching of a self-contained system; the structure side's one gate.

    Raises ``NotSelfContainedError`` whose ``report`` is ``check_system``'s
    and whose message is ``context`` followed by that report's description.
    """
    report = check_system(matrix)
    if not report.self_contained:
        raise NotSelfContainedError(context + report.describe(), report)
    return report.matching


def precedence(matrix: StructureMatrix, match: Sequence[int]) -> list[list[int]]:
    """Per equation, the equations matched to its other variables.

    ``match`` is a perfect matching (``match[e]`` the variable equation e
    determines); equation e can be solved only after the equations it lists.
    """
    equation_of = {v: e for e, v in enumerate(match)}
    return [[equation_of[u] for u in row if u != v] for row, v in zip(matrix.rows, match)]


# ---------------------------------------------------------------------------
# File format: {"variables": [...], "equations": [{"label":..., "vars":[...]}]}

def system_from_dict(doc: object) -> StructureMatrix:
    """Parse the system file document; list order fixes all indices."""
    if not isinstance(doc, dict):
        raise FormatError("system document must be a JSON object")
    extra = set(doc) - {"variables", "equations"}
    if extra:
        raise FormatError(f"unknown keys in system document: {sorted(extra)}")
    variables = doc.get("variables")
    equations = doc.get("equations")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise FormatError('"variables" must be a list of strings')
    if not isinstance(equations, list):
        raise FormatError('"equations" must be a list')
    parsed = []
    for k, eq in enumerate(equations):
        if not isinstance(eq, dict):
            raise FormatError(f"equation {k} must be an object")
        extra = set(eq) - {"label", "vars"}
        if extra:
            raise FormatError(f"unknown keys in equation {k}: {sorted(extra)}")
        label = eq.get("label")
        var_names = eq.get("vars")
        if not isinstance(label, str) or not label:
            raise FormatError(f'equation {k}: "label" must be a non-empty string')
        if not isinstance(var_names, list) or not all(isinstance(v, str) for v in var_names):
            raise FormatError(f'equation {label!r}: "vars" must be a list of strings')
        parsed.append((label, var_names))
    try:
        return StructureMatrix.from_names(variables, parsed)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def system_to_dict(matrix: StructureMatrix) -> dict:
    return {
        "variables": list(matrix.variable_names),
        "equations": [
            {
                "label": matrix.equation_labels[i],
                "vars": [matrix.variable_names[v] for v in sorted(matrix.rows[i])],
            }
            for i in range(matrix.n)
        ],
    }


def _reject_constant(name: str):
    raise FormatError(f"non-finite number {name} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _load_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file without NaN or Infinity; any failure is a ``FormatError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return _DECODER.decode(handle.read())
    except ValueError as exc:  # also oversized integer literals
        raise FormatError(str(exc)) from None
    except RecursionError:
        raise FormatError("JSON nested too deeply") from None


def _json_text(doc: object) -> str:
    """A document as two-space-indented JSON ending in a newline."""
    return json.dumps(doc, indent=2) + "\n"


def _save_json(doc: object, path: str | Path) -> None:
    Path(path).write_text(_json_text(doc), encoding="utf-8")


def load_system(path: str | Path) -> StructureMatrix:
    return system_from_dict(_load_json(path))


def save_system(matrix: StructureMatrix, path: str | Path) -> None:
    _save_json(system_to_dict(matrix), path)
