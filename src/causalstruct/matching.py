"""Bipartite matching between equations and variables.

Rows are square (as many columns as rows) and are sorted here, so every
scan visits columns in ascending order and the matching, and the Hall
violator derived from it, are deterministic.  Two stages, neither of which
recurses:

1. A Karp–Sipser start (Karp & Sipser 1981) that applies only the column
   degree-1 rule: a column that exactly one unmatched row holds is matched
   to that row, and the row's other columns lose one degree, until no such
   column is left.  The degree and the sum of the unmatched rows holding
   each column are kept, so the one row left is read off the sum.
2. Each row still unmatched, in ascending order, starts a breadth-first
   search for an augmenting path, with an explicit queue of rows (the
   search order of Duff's MC21, ACM TOMS 7(3), 1981, made breadth-first).
   A depth-first walk wanders far down long alternating paths on systems
   with many feedback clusters, where the first stage matches fewer than
   half of the rows; the breadth-first one stops at the nearest free
   column.

The first stage costs O(nnz) and a search at most O(nnz), so the worst
case is O(n * nnz); searches mostly stay near their rows instead.  On
shuffled planted systems (three parents per equation) the first stage
matches every row of an acyclic one, and with 5% of the variables in
feedback clusters of 2 to 4 the searches visit about 3.4 million columns
at n = 50 000 and 9.2 million at n = 100 000.

A failed search visits every column reachable from its row along
alternating paths, and each of those columns is matched, so no later
augmenting path can enter that reach and leave it at a free column; later
searches skip it.  The reach of the first failed search is therefore
final: its columns are the union of its rows, and it has one more row than
columns.  It is the Hall violator the matching returns.

Read as a transversal matroid on the rows, the rows the ascending searches
match are its greedy basis, and the first failed reach is the unique
circuit that basis meets in the rows up to the failing one.  A row the
first stage matches is in every maximum matching (each later degree-1
column leads back through earlier ones to a free column otherwise), so it
is in every basis and in no circuit: it never enters a witness, and no
alternating path reaches a column that only such rows hold.  The start
therefore changes which columns rows take, but not which rows stay
unmatched nor the violator, which are those of a plain ascending
augmenting-path (Kuhn) search.

An edited system needs no second matching.  Replacing one row of a system
that a perfect matching covers leaves every other row matched once that
row's pair is dropped, so the edited system's matching number is n or
n - 1: its deficiency is at most one, and ``rematch`` decides it with one
search from the replaced row, the same search ``maximum_matching`` runs.
With one row left over, the rows alternating paths reach from it are the
over-determined part of the Dulmage–Mendelsohn decomposition (Pothen & Fan
1990), which every maximum matching leaves the same, so that reach is the
violator a matching from scratch finds.
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
    # Tuples of ints: the collector untracks them at its first pass, so the
    # rows of a large system are not promoted to older generations.
    adjacency = [tuple(sorted(row)) for row in rows]
    n = len(adjacency)
    match_left, match_right = [-1] * n, [-1] * n

    degree = [0] * n  # unmatched rows holding each column
    holders = [0] * n  # and the sum of their indices
    for i, row in enumerate(adjacency):
        for j in row:
            degree[j] += 1
            holders[j] += i
    pending = [j for j in range(n) if degree[j] == 1]
    while pending:
        j = pending.pop()
        if degree[j] != 1:  # its one row was matched to another column
            continue
        i = holders[j]
        match_left[i], match_right[j] = j, i
        for k in adjacency[i]:
            degree[k] -= 1
            holders[k] -= i
            if degree[k] == 1:
                pending.append(k)

    # stamp[j]: the search that last visited column j, or n once a failed
    # search has shown that no augmenting path leaves it.
    stamp = [-1] * n
    via = [0] * n  # the row a search reached each column from
    reach = None
    for i in range(n):
        if match_left[i] != -1:
            continue
        failed = _augment(adjacency, match_left, match_right, stamp, via, i)
        if failed is not None:  # no free column is reachable: row i stays unmatched
            if reach is None:
                reach = failed
            for j in failed[1]:
                stamp[j] = n
    return match_left, reach


class _Ascending:
    """Rows by index, each sorted only when a search reads it."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Iterable[int]]):
        self.rows = rows

    def __getitem__(self, r: int) -> list[int]:
        return sorted(self.rows[r])


def rematch(
    rows: Sequence[Iterable[int]], match: Sequence[int], e: int,
) -> tuple[list[int], tuple[frozenset[int], frozenset[int]] | None]:
    """``maximum_matching(rows)`` for rows that a perfect matching held but row e.

    ``match`` perfectly matches rows that equal ``rows`` except row e: its
    row e was replaced, or, when e == len(match), row e and column e are new.
    Dropping row e's pair leaves every other row matched, and a maximum
    matching of ``rows`` has at most one row more, so one augmenting search
    from row e decides it.  Returns ``(match, reach)`` as
    ``maximum_matching`` does.  When the search fails, row e is the one row
    left over, and its reach is every row that some maximum matching leaves
    unmatched: the over-determined part of the Dulmage–Mendelsohn
    decomposition, the same for every maximum matching, and so the reach
    ``maximum_matching(rows)`` returns.  The matching itself may differ.
    Only the rows the search reads are sorted, so the cost follows the
    search's reach, plus O(n) to copy and invert ``match``.
    """
    n = len(rows)
    match_right = [-1] * n
    for r, j in enumerate(match):
        match_right[j] = r
    match_left = list(match)
    if e < len(match):
        match_right[match[e]] = -1
        match_left[e] = -1
    else:
        match_left.append(-1)
    return match_left, _augment(_Ascending(rows), match_left, match_right, [-1] * n, [0] * n, e)


def _augment(
    adjacency: Sequence[Sequence[int]] | _Ascending,
    match_left: list[int],
    match_right: list[int],
    stamp: list[int],
    via: list[int],
    i: int,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Search breadth first from unmatched row i for a free column and flip the path.

    ``adjacency[r]`` yields row r's columns in ascending order.  A column
    whose ``stamp`` is i or more is skipped; each column visited is stamped
    i, with ``via`` the row it was reached from.  Returns None once row i
    is matched, and otherwise the reach of the failed search: the rows it
    reached and the columns matched to all of them but row i, which are
    every column those rows hold, one fewer than the rows.
    """
    queue = [i]  # the rows the search has reached, breadth first
    for r in queue:
        for j in adjacency[r]:
            if stamp[j] < i:
                stamp[j] = i
                via[j] = r
                if match_right[j] == -1:
                    break  # a free column: augment to it
                queue.append(match_right[j])
        else:
            continue
        break
    else:
        return frozenset(queue), frozenset([match_left[r] for r in queue[1:]])
    while j != -1:  # flip the path back to row i, whose old column is -1
        r = via[j]
        match_right[j] = r
        match_left[r], j = j, match_left[r]
    return None
