"""Seeded random instance generators shared by the property and acceptance tests."""

from __future__ import annotations

import random

from causalstruct import Bbn, BbnNode, StructureMatrix


def random_self_contained_system(
    rng: random.Random,
    max_n: int = 10,
    min_n: int = 1,
    extra_prob: float = 0.25,
    plant_cycle: bool = False,
) -> StructureMatrix:
    """A square system guaranteed self-contained by a planted perfect matching.

    Extra participations are sprinkled on top, which creates feedback
    naturally; ``plant_cycle`` additionally wires two matched pairs into a
    guaranteed two-cycle when the system is big enough.
    """
    n = rng.randint(min_n, max_n)
    matched = list(range(n))
    rng.shuffle(matched)
    rows = []
    for i in range(n):
        row = {matched[i]}
        for j in range(n):
            if j != matched[i] and rng.random() < extra_prob:
                row.add(j)
        rows.append(row)
    if plant_cycle and n >= 2:
        i, j = rng.sample(range(n), 2)
        rows[i].add(matched[j])
        rows[j].add(matched[i])
    return StructureMatrix(
        variable_names=tuple(f"x{i}" for i in range(n)),
        equation_labels=tuple(f"e{i + 1}" for i in range(n)),
        rows=tuple(frozenset(row) for row in rows),
    )


def random_square_matrix(rng: random.Random, max_n: int = 8, fill: float = 0.35) -> StructureMatrix:
    """An arbitrary square system; not necessarily self-contained."""
    n = rng.randint(1, max_n)
    rows = []
    for _ in range(n):
        row = {v for v in range(n) if rng.random() < fill}
        if not row:
            row = {rng.randrange(n)}
        rows.append(frozenset(row))
    return StructureMatrix(
        variable_names=tuple(f"x{i}" for i in range(n)),
        equation_labels=tuple(f"e{i + 1}" for i in range(n)),
        rows=tuple(rows),
    )


def chain_system(n: int) -> StructureMatrix:
    """The adversarial augmenting chain, as the benchmark builds it.

    Variable i is ``v<i>`` and equation k is ``e<k>``; equation k < n-1 is
    {v_k, v_k+1} and the last is {v0}.  Matching equations in file order,
    the last one needs an augmenting path through the whole chain.
    """
    rows = [frozenset((k, k + 1)) for k in range(n - 1)] + [frozenset((0,))]
    return StructureMatrix(
        variable_names=tuple(f"v{i}" for i in range(n)),
        equation_labels=tuple(f"e{k}" for k in range(n)),
        rows=tuple(rows),
    )


def system_doc(matrix: StructureMatrix) -> dict:
    """The system file document of a matrix, each row's names in index order."""
    return {
        "variables": list(matrix.variable_names),
        "equations": [
            {"label": label, "vars": [matrix.variable_names[v] for v in sorted(row)]}
            for label, row in zip(matrix.equation_labels, matrix.rows)
        ],
    }


def permute(matrix: StructureMatrix, rows, cols) -> StructureMatrix:
    """Reorder equations by ``rows`` and variables by ``cols``.

    ``rows[k]`` is the old equation placed at position k, and likewise for
    ``cols``.
    """
    column = {old: new for new, old in enumerate(cols)}
    return StructureMatrix(
        variable_names=tuple(matrix.variable_names[v] for v in cols),
        equation_labels=tuple(matrix.equation_labels[e] for e in rows),
        rows=tuple(frozenset(column[v] for v in matrix.rows[e]) for e in rows),
    )


def subsystem(matrix: StructureMatrix, equations) -> StructureMatrix | None:
    """The given equations as a system over the variables they mention.

    ``None`` when the counts differ, so that no square system exists.
    """
    eqs = sorted(set(equations))
    variables = sorted(set().union(*(matrix.rows[e] for e in eqs)))
    if len(variables) != len(eqs):
        return None
    column = {v: k for k, v in enumerate(variables)}
    return StructureMatrix(
        variable_names=tuple(matrix.variable_names[v] for v in variables),
        equation_labels=tuple(matrix.equation_labels[e] for e in eqs),
        rows=tuple(frozenset(column[v] for v in matrix.rows[e]) for e in eqs),
    )


def random_probability_row(rng: random.Random, k: int, zero_prob: float = 0.15) -> tuple[float, ...]:
    weights = [rng.random() + 1e-3 for _ in range(k)]
    for i in range(k):
        if rng.random() < zero_prob and sum(w > 0 for w in weights) > 1:
            weights[i] = 0.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_bbn(
    rng: random.Random,
    max_nodes: int = 6,
    max_outcomes: int = 4,
    max_parents: int = 3,
    parent_prob: float = 0.45,
) -> Bbn:
    """A random valid network; total configurations stay at or below 4^6."""
    n = rng.randint(1, max_nodes)
    counts = [rng.randint(2, max_outcomes) for _ in range(n)]
    nodes = []
    for i in range(n):
        pool = list(range(i))
        rng.shuffle(pool)
        parents = tuple(sorted(p for p in pool[:max_parents] if rng.random() < parent_prob))
        row_count = 1
        for p in parents:
            row_count *= counts[p]
        cpt = tuple(random_probability_row(rng, counts[i]) for _ in range(row_count))
        nodes.append(
            BbnNode(
                name=f"v{i}",
                outcomes=tuple(f"o{j}" for j in range(counts[i])),
                parents=parents,
                cpt=cpt,
            )
        )
    return Bbn(tuple(nodes))


def random_distribution(rng: random.Random, k: int, degenerate_prob: float = 0.3) -> tuple[float, ...]:
    if rng.random() < degenerate_prob:
        hot = rng.randrange(k)
        return tuple(1.0 if i == hot else 0.0 for i in range(k))
    return random_probability_row(rng, k, zero_prob=0.0)


def independent_binary_network(n: int) -> Bbn:
    """``n`` parentless fair coins: 2**n joint configurations from a tiny file."""
    return Bbn(
        tuple(BbnNode(f"c{i}", ("h", "t"), (), ((0.5, 0.5),)) for i in range(n))
    )


def binary_chain_network(n: int) -> Bbn:
    """``n`` binary nodes in a chain: the last one's ancestors span 2**n configurations."""
    first = BbnNode("c0", ("h", "t"), (), ((0.5, 0.5),))
    rest = (BbnNode(f"c{i}", ("h", "t"), (i - 1,), ((0.9, 0.1), (0.2, 0.8))) for i in range(1, n))
    return Bbn((first, *rest))
