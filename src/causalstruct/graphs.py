"""Small directed-graph helpers: SCCs, topological order, cycles, reachability.

One Kahn pass gives the order or, where it stalls, a cycle: every vertex it
leaves has a parent it also left, so a walk up those parents always closes,
on the cycle a depth-first search would meet first.  The pass runs over
arcs chained through flat lists, which ``triangularize`` also finds kept
on an ordered matrix.  Tarjan's walk (1972),
with Pearce's one rank per vertex (2016), serves only the ordering's clusters.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from .errors import CycleError


def strongly_connected_components(adjacency: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Tarjan's algorithm, iterative to keep recursion depth flat.

    Vertices are 0..len(adjacency)-1.  Components come as tuples of their
    sorted members (tuples of ints, which the collector untracks at its
    first pass), in reverse topological order (every edge leaves a later
    component toward an earlier one or stays inside its own).  The walk keeps one
    adjacency iterator per vertex on it and one rank (Pearce 2016): the stack
    position a vertex is pushed at, lowered to the lowest live one it reaches.
    A root's rank names its own position; a finished vertex's is len(adjacency).
    """
    n = len(adjacency)
    rank = [-1] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []

    for root in range(n):
        if rank[root] != -1:
            continue
        rank[root] = len(stack)
        stack.append(root)
        trail = [root]
        pending = [iter(adjacency[root])]
        while pending:
            v = trail[-1]
            for w in pending[-1]:
                if rank[w] == -1:
                    rank[w] = len(stack)
                    stack.append(w)
                    trail.append(w)
                    pending.append(iter(adjacency[w]))
                    break
                if rank[w] < rank[v]:  # false once w's component is done: its rank is n
                    rank[v] = rank[w]
            else:
                trail.pop()
                pending.pop()
                if stack[rank[v]] == v:
                    component = []
                    while True:
                        w = stack.pop()
                        rank[w] = n
                        component.append(w)
                        if w == v:
                            break
                    component.sort()
                    components.append(tuple(component))
                elif rank[v] < rank[trail[-1]]:
                    rank[trail[-1]] = rank[v]
    return components


def topological_prefix(parents: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm with ascending-index tie-breaking, stopping where it sticks.

    Vertices are 0..len(parents)-1; ``parents[v]`` lists the vertices that
    must precede ``v``.  The order leaves out exactly the vertices on or
    downstream of a directed cycle.  Each vertex's children are chained
    through two flat lists of ints, not held in a list of their own, so a
    large graph leaves no list per vertex for the collector to promote; the
    heap makes the order in which they are visited irrelevant.
    """
    last = [-1] * len(parents)  # each vertex's latest arc to a child, or -1
    before: list[int] = []  # per arc: the same parent's previous arc, or -1
    child: list[int] = []  # per arc: its child
    for v, ps in enumerate(parents):
        for p in ps:
            before.append(last[p])
            last[p] = len(child)
            child.append(v)
    return _kahn([len(ps) for ps in parents], last, before, child)


def _kahn(indegree: list[int], last: Sequence[int], before: Sequence[int], child: Sequence[int]) -> list[int]:
    """Kahn's pass over chained arcs, lowest vertex first, stopping where it sticks.

    ``indegree[v]`` counts the arcs into vertex v, and is used up;
    ``last[v]`` is v's latest arc to a child, or -1; arc k leads to
    ``child[k]``, and ``before[k]`` is the same parent's arc before it, or -1.
    """
    order = []
    ready = [v for v, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        k = last[v]
        while k != -1:
            w = child[k]
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(ready, w)
            k = before[k]
    return order


def topological_order(parents: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm with ascending-index tie-breaking.

    Vertices and ``parents`` are as in ``topological_prefix``.  If no order
    exists, raises ``CycleError`` with a cycle read off what the pass left:
    from the smallest unplaced vertex, step to the first unplaced parent in
    list order until a vertex repeats.  Every unplaced vertex has an unplaced
    parent, so the walk closes; no placed vertex reaches a cycle, so this is
    the cycle a depth-first search up the parent lists, roots ascending,
    meets first.  It is given in arrow order (each vertex a parent of the
    next, the last of the first), rotated to start at its smallest vertex.
    """
    order = topological_prefix(parents)
    if len(order) == len(parents):
        return order
    placed = set(order)
    at: dict[int, int] = {}  # vertex -> position on the walk
    v = next(v for v in range(len(parents)) if v not in placed)
    while v not in at:
        at[v] = len(at)
        v = next(p for p in parents[v] if p not in placed)
    cycle = list(at)[at[v]:]
    cycle.reverse()  # walk was child-to-parent; arrows run the other way
    first = cycle.index(min(cycle))
    raise CycleError(tuple(cycle[first:] + cycle[:first]))


def reachable_from(starts: Iterable[int], edges: Iterable[tuple[int, int]]) -> set[int]:
    """``starts`` and every node reachable from them along directed edges.

    Each node's successors are chained through flat lists of ints, as in
    ``topological_prefix``, with no list per node.
    """
    last: dict[int, int] = {}  # each node's latest edge, ints only: the collector never tracks it
    before: list[int] = []  # per edge: the same node's previous edge, or -1
    head: list[int] = []  # per edge: the node it leads to
    for u, v in edges:
        before.append(last.get(u, -1))
        last[u] = len(head)
        head.append(v)
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        k = last.get(frontier.pop(), -1)
        while k != -1:
            w = head[k]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
            k = before[k]
    return seen
