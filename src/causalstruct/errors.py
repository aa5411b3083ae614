"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Sequence


class FormatError(ValueError):
    """A document does not conform to one of the JSON file formats."""


class _Refusal(ValueError):
    """An input that a check refused; ``report`` carries the check's diagnostic."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class NotSelfContainedError(_Refusal):
    """An operation required a self-contained system but got something else.

    ``report`` carries the diagnostic produced by ``check_system``.
    """


class CyclicStructureError(Exception):
    """Triangularization found no equation left with a single unplaced variable.

    ``remaining_equations``, the cyclic witness, holds the equations of each
    causal-ordering cluster of degree above one and of all clusters downstream.
    """

    def __init__(self, remaining_equations: frozenset[int]):
        self.remaining_equations = frozenset(remaining_equations)
        super().__init__(
            "no equation with a single remaining variable; "
            f"remaining equations: {sorted(self.remaining_equations)}"
        )


class CycleError(Exception):
    """A directed cycle was found where a DAG was required."""

    def __init__(self, members: tuple[int, ...]):
        self.members = tuple(members)
        super().__init__(f"cycle through nodes {list(self.members)}")

    def describe(self, names: Sequence[str]) -> str:
        """The cycle in arrow order, by the names its members index."""
        return "cycle through " + " -> ".join(names[v] for v in self.members)


class InvalidBbnError(_Refusal):
    """An operation required a valid belief network; ``report`` is ``validate``'s."""
