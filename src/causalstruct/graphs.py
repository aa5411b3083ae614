"""Small directed-graph helpers: SCCs, topological order, cycles, reachability.

One Kahn pass gives the order or, where it stalls, a cycle: every vertex it
leaves has a parent it also left, so a walk up those parents always closes,
on the cycle a depth-first search would meet first.  Tarjan's algorithm
serves the clusters of the causal ordering only.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from .errors import CycleError


def strongly_connected_components(n: int, adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to keep recursion depth flat.

    Vertices are 0..n-1.  Each component is returned with its members
    sorted; the component list itself is in reverse topological order
    (every edge leaves a later component toward an earlier one or stays
    inside its own).  The walk keeps one adjacency iterator per vertex on it.
    Vertices of finished components take index n, above every live index.
    """
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        trail = [root]
        pending = [iter(adjacency[root])]
        while pending:
            v = trail[-1]
            for w in pending[-1]:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    trail.append(w)
                    pending.append(iter(adjacency[w]))
                    break
                if index[w] < low[v]:  # false once w's component is done: its index is n
                    low[v] = index[w]
            else:
                trail.pop()
                pending.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        component.append(w)
                        if w == v:
                            break
                    components.append(sorted(component))
                elif low[v] < low[trail[-1]]:
                    low[trail[-1]] = low[v]
    return components


def topological_prefix(n: int, parents: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm with ascending-index tie-breaking, stopping where it sticks.

    ``parents[v]`` lists the vertices that must precede ``v``.  The order
    leaves out exactly the vertices on or downstream of a directed cycle.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for v in range(n):
        for p in parents[v]:
            children[p].append(v)
            indegree[v] += 1
    order = []
    ready = [v for v in range(n) if indegree[v] == 0]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in children[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(ready, w)
    return order


def topological_order(n: int, parents: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm with ascending-index tie-breaking.

    ``parents[v]`` lists the vertices that must precede ``v``.  If no order
    exists, raises ``CycleError`` with a cycle read off what the pass left:
    from the smallest unplaced vertex, step to the first unplaced parent in
    list order until a vertex repeats.  Every unplaced vertex has an unplaced
    parent, so the walk closes; no placed vertex reaches a cycle, so this is
    the cycle a depth-first search up the parent lists, roots ascending,
    meets first.  It is given in arrow order (each vertex a parent of the
    next, the last of the first), rotated to start at its smallest vertex.
    """
    order = topological_prefix(n, parents)
    if len(order) == n:
        return order
    placed = set(order)
    at: dict[int, int] = {}  # vertex -> position on the walk
    v = next(v for v in range(n) if v not in placed)
    while v not in at:
        at[v] = len(at)
        v = next(p for p in parents[v] if p not in placed)
    cycle = list(at)[at[v]:]
    cycle.reverse()  # walk was child-to-parent; arrows run the other way
    first = cycle.index(min(cycle))
    raise CycleError(tuple(cycle[first:] + cycle[:first]))


def reachable_from(starts: Iterable[int], edges: Iterable[tuple[int, int]]) -> set[int]:
    """``starts`` and every node reachable from them along directed edges."""
    succs: dict[int, list[int]] = {}
    for u, v in edges:
        succs.setdefault(u, []).append(v)
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in succs.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
