"""Ground-truth checks on the program's answers.

Every check compares an answer with what the generators planted, or with a
quantity the benchmark computes from the generated tables itself.  A check
raises ``WrongAnswer`` on the first discrepancy.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict

from bench.generate import Network, PlantedSystem

JOINT_TOLERANCE = 1e-12
SAMPLE_DELTA = 1e-9  # false-alarm probability allowed per checked cell
TRACEBACK = "Traceback (most recent call last)"


class WrongAnswer(Exception):
    """The program finished but its answer or exit code is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def exit_code(result, expected: int) -> None:
    require(result.code == expected, f"exit code {result.code}, expected {expected}")


# ---------------------------------------------------------------------------
# Structure systems


def self_contained(report) -> None:
    require(report.self_contained, "system reported not self-contained")
    require(not report.unused_variables and report.violation is None, "spurious witness")


def ordering(system: PlantedSystem, result) -> None:
    got = {(c.equations, c.variables, c.order) for c in result.clusters}
    require(got == system.expected_clusters(), "clusters or orders differ from the plant")
    require(
        set(result.variable_edges) == system.expected_variable_edges(),
        "variable edges differ from the plant",
    )
    block_of = system.block_of
    cluster_block = [block_of[min(c.variables)] for c in result.clusters]
    got_edges = {(cluster_block[a], cluster_block[b]) for a, b in result.cluster_edges}
    require(got_edges == system.expected_block_edges(), "cluster edges differ from the plant")


def lower_triangular(system: PlantedSystem, row_perm, col_perm) -> None:
    """O(nnz): a permutation pair that puts every row at or left of the diagonal."""
    n = system.n
    require(sorted(row_perm) == list(range(n)), "row order is not a permutation")
    require(sorted(col_perm) == list(range(n)), "column order is not a permutation")
    position = [0] * n
    for k, v in enumerate(col_perm):
        position[v] = k
    for k, e in enumerate(row_perm):
        row = system.rows[e]
        require(col_perm[k] in row, f"diagonal entry {k} is empty")
        require(all(position[v] <= k for v in row), f"row {k} reaches past the diagonal")


def cyclic_witness(system: PlantedSystem, remaining) -> None:
    require(
        frozenset(remaining) == system.cyclic_witness(),
        "cyclic witness differs from the feedback blocks and their descendants",
    )


def edit(system: PlantedSystem, equation: int, edited, affected) -> None:
    keep = frozenset(system.blocks[system.eq_block[equation]])
    rows = list(system.rows)
    rows[equation] = keep
    require(tuple(edited.rows) == tuple(rows), "edited system has the wrong rows")
    require(
        frozenset(affected) == system.downstream_variables(equation),
        "affected variables differ from the planted downstream closure",
    )


def refused_edit(system: PlantedSystem, equation: int, source: int, report) -> None:
    """The edit gave ``equation`` the row of ``source``; the report must witness it."""
    require(report is not None, "an edit leaving k + 1 equations on k variables was accepted")
    rows = list(system.rows)
    rows[equation] = system.rows[source]
    require(report.violation is not None, "no violating equation subset reported")
    equations = report.violation.equations
    variables = frozenset().union(*(rows[e] for e in equations))
    require(
        report.violation.variables == variables and len(variables) < len(equations),
        "reported subset does not have fewer variables than equations",
    )
    used = frozenset().union(*rows)
    require(not used & set(report.unused_variables), "a variable reported unused is used")


def cli_check(system: PlantedSystem, result) -> None:
    exit_code(result, 0)
    acyclic = "yes" if system.acyclic else "no"
    require(
        result.stdout == f"self-contained: yes\nacyclic: {acyclic}\n",
        "check printed the wrong verdict",
    )


def _index(name: str) -> int:
    return int(name[1:])


def cli_order(system: PlantedSystem, result) -> None:
    exit_code(result, 0)
    lines = result.stdout.splitlines()
    require(lines[:1] == ["order  degree  variables"], "order header missing")
    split = lines.index("edges:")
    clusters = set()
    for line in lines[1:split]:
        order, degree, names = line.split(None, 2)
        members = frozenset(_index(name) for name in names.split(", "))
        require(int(degree) == len(members), "degree column disagrees with the cluster")
        clusters.add((members, int(order)))
    expected = {(variables, order) for _, variables, order in system.expected_clusters()}
    require(clusters == expected, "printed clusters or orders differ from the plant")
    edges = set()
    for line in lines[split + 1:]:
        u, v = line.strip().split(" -> ")
        edges.add((_index(u), _index(v)))
    require(edges == system.expected_variable_edges(), "printed edges differ from the plant")


def cli_triangularize(system: PlantedSystem, result) -> None:
    if not system.acyclic:
        exit_code(result, 1)
        match = re.fullmatch(r"error:cyclic: witness \{(.*)\}\n", result.stderr)
        require(match is not None, "no error:cyclic witness line")
        cyclic_witness(system, {_index(label) for label in match.group(1).split(", ")})
        return
    exit_code(result, 0)
    lines = result.stdout.splitlines()
    require(lines[0].startswith("row order: "), "row order line missing")
    require(lines[1].startswith("column order: "), "column order line missing")
    rows = [_index(label) for label in lines[0][len("row order: "):].split(", ")]
    cols = [_index(name) for name in lines[1][len("column order: "):].split(", ")]
    lower_triangular(system, rows, cols)


# ---------------------------------------------------------------------------
# Belief networks


def thresholds_match(network: Network, names, parents, thresholds) -> None:
    """Interval lengths equal the planted tables.

    For factors in [0, 1], |prod a - prod b| <= sum |a_i - b_i|, so a summed
    per-node error within the tolerance bounds the joint gap by it too.
    """
    require(tuple(names) == network.names, "variable names differ")
    require(tuple(map(tuple, parents)) == network.parents, "parent sets differ")
    total = 0.0
    for rows, cpt in zip(thresholds, network.cpt):
        require(len(rows) == len(cpt), "threshold row count differs")
        worst = 0.0
        for row, probs in zip(rows, cpt):
            require(len(row) == len(probs), "threshold row length differs")
            lower = 0.0
            for c, p in zip(row, probs):
                worst = max(worst, abs((c - lower) - p))
                lower = c
        total += worst
    require(total <= JOINT_TOLERANCE, f"joint gap bound {total:.3e} exceeds 1e-12")


def sem_object(network: Network, sem) -> None:
    thresholds_match(
        network,
        sem.variable_names,
        [eq.parents for eq in sem.equations],
        [eq.thresholds for eq in sem.equations],
    )


def intervention_deltas(network: Network, node: int, dist, deltas: dict[str, float], slack=0.0):
    """The cut node moves by exactly |marginal - dist|; non-descendants stay put."""
    names = network.names
    require(set(deltas) == set(names), "deviations name the wrong variables")
    expected = max(abs(m - d) for m, d in zip(network.marginal(node), dist))
    got = deltas[names[node]]
    require(
        abs(got - expected) <= JOINT_TOLERANCE + slack * expected,
        f"intervened node moved by {got!r}, expected {expected!r}",
    )
    below = network.descendants(node)
    for v in range(network.n):
        if v != node and v not in below:
            require(deltas[names[v]] <= JOINT_TOLERANCE, f"non-descendant {names[v]} moved")


def intervened_network(network: Network, node: int, dist, nodes) -> None:
    """``nodes``: (parents, cpt) per node of the edited network, by index."""
    for v, (parents, cpt) in enumerate(nodes):
        if v == node:
            require(tuple(parents) == () and tuple(map(tuple, cpt)) == (tuple(dist),),
                    "intervened node keeps parents or has the wrong distribution")
        else:
            require(tuple(parents) == network.parents[v] and tuple(map(tuple, cpt)) == network.cpt[v],
                    f"node {v} changed although it was not intervened on")


def network_lib(network: Network, node: int, dist, result) -> None:
    sem, gap, roundtrip, after, deltas = result
    sem_object(network, sem)
    require(0.0 <= gap <= JOINT_TOLERANCE, f"check_equivalence reported {gap!r}")
    require(roundtrip is True, "round trip failed")
    intervened_network(network, node, dist, [(n.parents, n.cpt) for n in after.nodes])
    intervention_deltas(network, node, dist, deltas)


def cli_verify(result) -> None:
    exit_code(result, 0)
    match = re.fullmatch(r"max deviation (\S+); roundtrip: ok\n", result.stdout)
    require(match is not None, "verify printed no deviation or round trip failed")
    require(float(match.group(1)) <= JOINT_TOLERANCE, "verify deviation exceeds 1e-12")


def cli_to_sem(network: Network, result) -> None:
    exit_code(result, 0)
    equations = json.loads(result.stdout)["equations"]
    names = [eq["target"] for eq in equations]
    index = {name: i for i, name in enumerate(names)}
    thresholds_match(
        network,
        names,
        [[index[p] for p in eq["parents"]] for eq in equations],
        [eq["thresholds"] for eq in equations],
    )


def cli_intervene(network: Network, node: int, dist, result, written: dict) -> None:
    exit_code(result, 0)
    lines = result.stdout.splitlines()
    require(lines[0].split() == ["variable", "max", "marginal", "deviation"], "header missing")
    deltas = {}
    for line in lines[1:]:
        name, value = line.split()
        deltas[name] = float(value)
    # Deviations are printed with four significant digits.
    intervention_deltas(network, node, dist, deltas, slack=5e-4)
    index = {name: i for i, name in enumerate(network.names)}
    intervened_network(
        network,
        node,
        dist,
        [([index[p] for p in raw["parents"]], raw["cpt"]) for raw in written["nodes"]],
    )


# ---------------------------------------------------------------------------
# Sampling


def deviation_bound(p: float, m: int) -> float:
    """Bernstein: |k/m - p| exceeds this with probability below SAMPLE_DELTA."""
    t = math.log(2 / SAMPLE_DELTA)
    return (2 * t / 3 + math.sqrt(4 * t * t / 9 + 8 * m * p * (1 - p) * t)) / (2 * m)


def tallies(network: Network, counts: dict, total: int) -> None:
    """Seeded tallies are a plausible draw from the exact joint.

    Every drawn assignment has positive probability under the tables, and
    both each drawn joint cell and each conditional cell (node outcome given
    its parents' values) lie within the Bernstein bound at SAMPLE_DELTA.
    The latents are independent, so given its parents' values each node's
    outcomes are an exact binomial sample of its table row.
    """
    require(sum(counts.values()) == total, "tallies do not sum to the draw count")
    lengths = [
        [[c - (row[j - 1] if j else 0.0) for j, c in enumerate(row)] for row in rows]
        for rows in network.thresholds()
    ]
    cells: list[dict] = [defaultdict(Counter) for _ in range(network.n)]
    for assignment, k in counts.items():
        p = 1.0
        for v in range(network.n):
            r = 0
            for q in network.parents[v]:
                r = r * network.counts[q] + assignment[q]
            p *= lengths[v][r][assignment[v]]
            cells[v][r][assignment[v]] += k
        require(p > 0.0, f"drew zero-probability assignment {assignment}")
        require(abs(k / total - p) <= deviation_bound(p, total), f"joint cell {assignment} off")
    for v in range(network.n):
        for r, outcomes in cells[v].items():
            m = sum(outcomes.values())
            for j, p in enumerate(lengths[v][r]):
                k = outcomes.get(j, 0)
                within = k == 0 if p == 0.0 else abs(k / m - p) <= deviation_bound(p, m)
                require(within, f"node {v} row {r} cell {j} off")


def parse_sample(result, seed: int, total: int) -> Counter:
    exit_code(result, 0)
    lines = result.stdout.splitlines()
    require(lines[:2] == [f"draws: {total}", f"seed: {seed}"], "sample header wrong")
    require(lines[2].split() == ["assignment", "count", "frequency"], "sample table header wrong")
    counts: Counter = Counter()
    for line in lines[3:]:
        *cells, count, frequency = line.split()
        assignment = tuple(int(cell.split("=")[1]) for cell in cells)
        require(assignment not in counts, "assignment printed twice")
        require(frequency == f"{int(count) / total:.6f}", "frequency column wrong")
        counts[assignment] = int(count)
    return counts
