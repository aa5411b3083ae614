"""Bipartite matching between equations and variables.

Augmenting-path (Kuhn) matching is ample for desk-scale systems.  Rows are
square (as many columns as rows) and are sorted here, so rows and columns
are visited in ascending order and results, and the Hall violators derived
from them, are deterministic.  The search recurses one Python frame per
augmenting-path step, so a path longer than the interpreter's recursion
limit (about 1000) raises ``RecursionError``; that is why the benchmark's
chain-1500 and dag-8000 systems fail (ROADMAP item 2 replaces the search).

A failed search visits every column reachable from its row along
alternating paths, and each of those columns is matched, so no later
augmenting path can enter that reach and leave it at a free column.  The
reach of the first failed search is therefore final: its columns are the
union of its rows, and it has one more row than columns.  It is the Hall
violator the matching returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def maximum_matching(
    rows: Sequence[Iterable[int]],
) -> tuple[list[int], tuple[frozenset[int], frozenset[int]] | None]:
    """Match each row to a distinct column where possible.

    ``rows[i]`` holds the columns, of 0..len(rows)-1, that row ``i`` may
    take; it is searched in ascending order.  Returns ``(match, reach)``:
    ``match[i]`` is row ``i``'s column, or -1 if ``i`` is unmatched;
    ``reach`` is None when every row is matched, and otherwise the rows and
    columns that the lowest unmatched row's failed search visited.
    """
    adjacency = [sorted(row) for row in rows]
    match_left, match_right = [-1] * len(rows), [-1] * len(rows)
    reach = None

    def try_augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or try_augment(match_right[j], seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(len(adjacency)):
        seen: set[int] = set()
        if not try_augment(i, seen) and reach is None:
            reach = (frozenset([i, *(match_right[j] for j in seen)]), frozenset(seen))
    return match_left, reach
