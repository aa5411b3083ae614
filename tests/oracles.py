"""Brute-force reference implementations used only as test oracles.

The structure oracles work by subset enumeration over bitmasks, by pivoting
rows one at a time, or by recursive depth-first search, and deliberately
avoid the matching/SCC/Kahn machinery of the package under test.
The probability oracles form one joint probability per assignment, ranking
each node's parent values afresh, without the compiled per-model plans;
``exact_joint`` and ``exact_sem_joint`` form it in exact rationals from the
same float tables and thresholds.
The sampling oracle evaluates one draw at a time, one variable at a time,
and the report oracle renders its tallies one row at a time.
``chain_rule_network`` refactors a network's joint along another order by
conditioning the enumerated joint.  ``ordering_restores_dag`` is the one
exception: it runs the package's own causal ordering, to hold
``roundtrip_check``'s theorem against the computed result.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from operator import itemgetter

from causalstruct import Bbn, BbnNode, StructureMatrix, bbn_to_sem, causal_ordering, sem_structure


def _rank(radices, digits) -> int:
    rank = 0
    for radix, digit in zip(radices, digits):
        rank = rank * radix + digit
    return rank


def reference_joint(bbn, assignment) -> float:
    """Product of the selected table entries in node-index order, from 1.0."""
    p = 1.0
    for i, node in enumerate(bbn.nodes):
        radices = [bbn.nodes[q].outcome_count for q in node.parents]
        p *= node.cpt[_rank(radices, [assignment[q] for q in node.parents])][assignment[i]]
    return p


def _exact_products(mechanisms, tables) -> dict[tuple[int, ...], Fraction]:
    """Every assignment's exact product of the entries it selects, one per
    mechanism; ``tables[i][r][j]`` is mechanism i's entry at row r, outcome j,
    as an integer ratio, so each product is formed as one such ratio."""
    joint = {}
    for assignment in product(*(range(m.outcome_count) for m in mechanisms)):
        numerator = denominator = 1
        for m, table, j in zip(mechanisms, tables, assignment):
            radices = [mechanisms[q].outcome_count for q in m.parents]
            n, d = table[_rank(radices, [assignment[q] for q in m.parents])][j]
            numerator, denominator = numerator * n, denominator * d
        joint[assignment] = Fraction(numerator, denominator)
    return joint


def exact_joint(bbn) -> dict[tuple[int, ...], Fraction]:
    """Every assignment's joint probability in ``Fraction``, each table entry read exactly.

    The values are the exact products of the float entries, with no
    rounding; enumerate only small networks (n <= 6).
    """
    tables = [[[x.as_integer_ratio() for x in row] for row in node.cpt] for node in bbn.nodes]
    return _exact_products(bbn.nodes, tables)


def exact_sem_joint(sem) -> dict[tuple[int, ...], Fraction]:
    """Every assignment's joint probability in ``Fraction``: the exact product
    of the exact differences of the float thresholds that select it."""
    tables = [
        [[(Fraction(c) - Fraction(b)).as_integer_ratio() for b, c in zip((0.0,) + row, row)] for row in eq.thresholds]
        for eq in sem.equations
    ]
    return _exact_products(sem.equations, tables)


def reference_sem_joint(sem, assignment) -> float:
    """Product of the selected interval lengths in equation-index order, from 1.0."""
    p = 1.0
    for eq, j in zip(sem.equations, assignment):
        radices = [sem.equations[q].outcome_count for q in eq.parents]
        row = eq.thresholds[_rank(radices, [assignment[q] for q in eq.parents])]
        p *= row[j] - (row[j - 1] if j else 0.0)
    return p


def _reference_steps(sem):
    """Per target in evaluation order: the target, a key reader, rows by key.

    A key holds the parents' values and the target's own value, which
    ``_reference_forward`` reads before setting it, so every own value maps
    to the row the parents select.
    """
    counts = sem.outcome_counts()
    steps = []
    for v in sem.evaluation_order:
        eq = sem.equations[v]
        keys = product(*(range(counts[p]) for p in eq.parents), range(counts[v]))
        rows = {
            key if eq.parents else key[0]: eq.thresholds[i // counts[v]]
            for i, key in enumerate(keys)
        }
        steps.append((v, itemgetter(*eq.parents, v), rows))
    return steps


def _reference_forward(steps, draws):
    values = [0] * len(steps)
    for latents in draws:
        for v, key, rows in steps:
            values[v] = bisect_left(rows[key(values)], latents[v])
        yield tuple(values)


def reference_evaluate(sem, latents):
    """The assignment one latent vector selects, evaluated parents first."""
    return next(_reference_forward(_reference_steps(sem), [latents]))


def reference_sample(sem, seed, count):
    """Tally ``count`` draws, each taking ``1 - random()`` per variable in index order."""
    rng = random.Random(seed)
    n = sem.n
    draws = ([1.0 - rng.random() for _ in range(n)] for _ in range(count))
    return Counter(_reference_forward(_reference_steps(sem), draws))


def reference_report(sem, seed, count):
    """The ``sample`` command's stdout, one row per distinct draw of ``reference_sample``."""
    counts = reference_sample(sem, seed, count)
    labels = [[f"{name}={j}" for j in range(k)] for name, k in zip(sem.variable_names, sem.outcome_counts())]
    keys = sorted(counts)
    texts = [" ".join(labels[v][j] for v, j in enumerate(key)) for key in keys]
    width = max([len("assignment")] + [len(text) for text in texts])
    lines = [f"draws: {count}", f"seed: {seed}", "assignment".ljust(width) + "       count  frequency"]
    for text, key in zip(texts, keys):
        lines.append(f"{text.ljust(width)}  {counts[key]:>10}  {counts[key] / count:.6f}")
    return "\n".join(lines) + "\n"


def reference_marginals(bbn) -> list[list[float]]:
    buckets = [[[] for _ in node.outcomes] for node in bbn.nodes]
    for assignment in product(*map(range, bbn.outcome_counts())):
        p = reference_joint(bbn, assignment)
        for i, outcome in enumerate(assignment):
            buckets[i][outcome].append(p)
    return [[math.fsum(cell) for cell in rows] for rows in buckets]


def reference_gap(bbn, sem) -> float:
    """Largest joint gap between a network and an equation system over the same variables."""
    worst = 0.0
    for assignment in product(*map(range, bbn.outcome_counts())):
        gap = abs(reference_joint(bbn, assignment) - reference_sem_joint(sem, assignment))
        if gap > worst:
            worst = gap
    return worst


def reference_compare_marginals(before, after) -> dict[str, float]:
    """Per-variable largest marginal gap; both networks list the same names in order."""
    pairs = zip(before.nodes, reference_marginals(before), reference_marginals(after))
    return {node.name: max(abs(x - y) for x, y in zip(a, b)) for node, a, b in pairs}


def chain_rule_network(bbn, order):
    """A network with ``bbn``'s joint whose node ``order[k]`` has parents ``order[:k]``.

    Each node keeps its index, name and outcomes; its parents are the nodes
    before it in ``order``, ascending, and its rows are its conditionals given
    them, read off the exact joint: P(v, parents) / P(parents), or one-hot on
    the first outcome where P(parents) is 0.  This is Shachter's arc reversal
    ("Evaluating influence diagrams", 1986) by brute force.
    """
    counts = bbn.outcome_counts()
    joint = {a: reference_joint(bbn, a) for a in product(*map(range, counts))}
    nodes = list(bbn.nodes)
    for k, v in enumerate(order):
        parents = tuple(sorted(order[:k]))
        cells = defaultdict(list)
        for a, p in joint.items():
            cells[tuple(a[q] for q in parents), a[v]].append(p)
        rows = []
        for config in product(*(range(counts[q]) for q in parents)):
            mass = [math.fsum(cells[config, j]) for j in range(counts[v])]
            total = math.fsum(mass)
            rows.append(tuple(m / total for m in mass) if total else (1.0,) + (0.0,) * (counts[v] - 1))
        nodes[v] = BbnNode(bbn.nodes[v].name, bbn.nodes[v].outcomes, parents, tuple(rows))
    return Bbn(tuple(nodes))


def ordering_restores_dag(bbn) -> bool:
    """Whether the causal ordering of ``bbn_to_sem(bbn)`` has only degree-1
    clusters and variable-level edges equal to the network's arcs."""
    ordering = causal_ordering(sem_structure(bbn_to_sem(bbn)))
    return all(c.degree == 1 for c in ordering.clusters) and ordering.variable_edges == bbn.edges


def row_masks(matrix: StructureMatrix) -> list[int]:
    return [sum(1 << v for v in row) for row in matrix.rows]


def brute_is_self_contained(matrix: StructureMatrix, subset) -> bool:
    """Definition check: equal counts plus every sub-subset has enough variables."""
    eqs = sorted(set(subset))
    if not eqs:
        raise ValueError("empty subset")
    masks = row_masks(matrix)
    m = len(eqs)
    union = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | masks[eqs[low]]
    full = (1 << m) - 1
    if union[full].bit_count() != m:
        return False
    return all(union[s].bit_count() >= s.bit_count() for s in range(1, 1 << m))


def brute_self_contained_subsets(matrix: StructureMatrix) -> set[frozenset[int]]:
    """Every self-contained subset of the full system, by enumeration."""
    n = matrix.n
    masks = row_masks(matrix)
    union = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | masks[low]
    # has_deficient[s]: some non-empty subset of s mentions fewer variables
    # than it has equations
    has_deficient = [False] * (1 << n)
    result = set()
    for s in range(1, 1 << n):
        deficient = union[s].bit_count() < s.bit_count()
        flag = deficient
        t = s
        while t and not flag:
            low = t & -t
            t ^= low
            flag = has_deficient[s ^ low]
        has_deficient[s] = flag
        if not flag and union[s].bit_count() == s.bit_count():
            result.add(frozenset(i for i in range(n) if s >> i & 1))
    return result


def surplus_core(matrix: StructureMatrix) -> frozenset[int]:
    """Intersection of the equation subsets of largest surplus, by enumeration.

    A subset's surplus is its number of equations minus the number of
    variables it mentions; the empty subset has surplus 0.
    """
    n = matrix.n
    masks = row_masks(matrix)
    union = [0] * (1 << n)
    best, core = 0, 0
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | masks[low]
        surplus = s.bit_count() - union[s].bit_count()
        if surplus > best:
            best, core = surplus, s
        elif surplus == best:
            core &= s
    return frozenset(i for i in range(n) if core >> i & 1)


def naive_causal_ordering(matrix: StructureMatrix):
    """Step-by-step identification of minimal self-contained subsets.

    Returns (clusters, variable_edges) with clusters a set of
    (equations, variables, order) triples.  Raises if the system is not
    self-contained (some step finds nothing to solve).
    """
    n = matrix.n
    masks = row_masks(matrix)
    remaining = list(range(n))
    solved_mask = 0
    clusters = set()
    variable_edges = set()
    step = 0
    while remaining:
        m = len(remaining)
        union = [0] * (1 << m)
        for s in range(1, 1 << m):
            low = (s & -s).bit_length() - 1
            union[s] = union[s & (s - 1)] | (masks[remaining[low]] & ~solved_mask)
        has_deficient = [False] * (1 << m)
        has_sc = [False] * (1 << m)
        minimal = []
        for s in range(1, 1 << m):
            deficient = union[s].bit_count() < s.bit_count()
            sub_deficient = deficient
            sub_sc = False
            t = s
            while t:
                low = t & -t
                t ^= low
                sub_deficient = sub_deficient or has_deficient[s ^ low]
                sub_sc = sub_sc or has_sc[s ^ low]
            has_deficient[s] = sub_deficient
            sc = union[s].bit_count() == s.bit_count() and not sub_deficient
            if sc and not sub_sc:
                minimal.append(s)
            has_sc[s] = sc or sub_sc
        if not minimal:
            raise AssertionError("no minimal self-contained subset; system is not self-contained")
        newly_solved = 0
        solved_eqs = []
        for s in minimal:
            eqs = frozenset(remaining[i] for i in range(m) if s >> i & 1)
            vset = frozenset(v for v in range(n) if union[s] >> v & 1)
            assert not (newly_solved & union[s]), "minimal subsets must be disjoint"
            newly_solved |= union[s]
            clusters.add((eqs, vset, step))
            for e in eqs:
                for u in matrix.rows[e]:
                    if u in vset:
                        continue
                    assert solved_mask >> u & 1, "external variable not yet solved"
                    variable_edges.update((u, w) for w in vset)
            solved_eqs.extend(eqs)
        solved_mask |= newly_solved
        remaining = [e for e in remaining if e not in solved_eqs]
        step += 1
    return clusters, variable_edges


def pivot_scan_triangularize(matrix: StructureMatrix):
    """Pivot single-variable rows to the diagonal until none remain.

    At each step the rows are scanned for one with exactly one participation
    among the not-yet-pivoted columns; ties go to the lowest equation index.
    Returns ``(row_perm, col_perm, stuck)``: the pivots placed, in order,
    and the frozenset of equations left unplaced (empty when the scan
    completes).
    """
    remaining_eqs = list(range(matrix.n))
    remaining_vars = set(range(matrix.n))
    row_perm: list[int] = []
    col_perm: list[int] = []
    while remaining_eqs:
        pivot = None
        for e in remaining_eqs:
            live = matrix.rows[e] & remaining_vars
            if len(live) == 1:
                pivot = (e, next(iter(live)))
                break
        if pivot is None:
            break
        e, v = pivot
        row_perm.append(e)
        col_perm.append(v)
        remaining_eqs.remove(e)
        remaining_vars.remove(v)
    return tuple(row_perm), tuple(col_perm), frozenset(remaining_eqs)


def recursive_find_cycle(n: int, parents) -> tuple[int, ...]:
    """One directed cycle of the parent relation, by recursive depth-first search.

    Roots are tried in ascending order and parents in list order; the first
    parent found on the current walk closes the cycle, which is returned in
    arrow order rotated to start at its smallest vertex.
    """
    color = [0] * n  # 0 unvisited, 1 in progress, 2 done
    trail: list[int] = []

    def visit(v: int):
        color[v] = 1
        trail.append(v)
        for p in parents[v]:
            if color[p] == 1:
                cycle = trail[trail.index(p):]
                cycle.reverse()  # walk was child-to-parent; arrows run the other way
                at = cycle.index(min(cycle))
                return tuple(cycle[at:] + cycle[:at])
            if color[p] == 0:
                found = visit(p)
                if found is not None:
                    return found
        trail.pop()
        color[v] = 2
        return None

    for v in range(n):
        if color[v] == 0:
            found = visit(v)
            if found is not None:
                return found
    raise ValueError("graph is acyclic; no cycle to report")


def recursive_maximum_matching(rows):
    """Kuhn's augmenting-path matching, one recursive call per path step.

    Rows are searched in ascending order and each row's columns in
    ascending order.  Returns ``(match, reach)`` as
    ``causalstruct.matching.maximum_matching`` does: ``reach`` holds the
    rows and columns the lowest unmatched row's failed search visited.
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
