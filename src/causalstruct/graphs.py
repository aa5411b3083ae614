"""Small directed-graph helpers: SCCs, topological order, cycles, reachability."""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from .errors import CycleError


def strongly_connected_components(n: int, adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to keep recursion depth flat.

    Vertices are 0..n-1.  Each component is returned with its members
    sorted; the component list itself is in reverse topological order
    (every edge leaves a later component toward an earlier one or stays
    inside its own).  The walk keeps one adjacency iterator per vertex on
    it, as ``find_cycle`` does.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        trail = [root]
        pending = [iter(adjacency[root])]
        while pending:
            v = trail[-1]
            for w in pending[-1]:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    trail.append(w)
                    pending.append(iter(adjacency[w]))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                trail.pop()
                pending.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
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

    ``parents[v]`` lists the vertices that must precede ``v``.  Raises
    ``CycleError`` carrying one directed cycle if no order exists.
    """
    order = topological_prefix(n, parents)
    if len(order) != n:
        raise CycleError(find_cycle(n, parents))
    return order


def find_cycle(n: int, parents: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Return the vertices of one directed cycle of the parent relation.

    An iterative depth-first walk up the parent links, roots in ascending
    order.  The cycle is reported in arrow order (each listed vertex is a
    parent of the next, the last wrapping to the first), rotated to start
    at its smallest vertex.
    """
    color = [0] * n  # 0 unvisited, 1 on the walk, 2 done
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        trail = [root]
        pending = [iter(parents[root])]
        while pending:
            for p in pending[-1]:
                if color[p] == 1:
                    cycle = trail[trail.index(p):]
                    cycle.reverse()  # walk was child-to-parent; arrows run the other way
                    at = cycle.index(min(cycle))
                    return tuple(cycle[at:] + cycle[:at])
                if color[p] == 0:
                    color[p] = 1
                    trail.append(p)
                    pending.append(iter(parents[p]))
                    break
            else:
                color[trail.pop()] = 2
                pending.pop()
    raise ValueError("graph is acyclic; no cycle to report")


def reachable_from(start: int, edges: set[tuple[int, int]]) -> set[int]:
    """All nodes reachable from ``start`` along directed edges (excluding it
    unless it lies on a cycle)."""
    succs: dict[int, list[int]] = {}
    for u, v in edges:
        succs.setdefault(u, []).append(v)
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in succs.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
