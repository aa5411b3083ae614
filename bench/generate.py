"""Seeded input generators that keep the ground truth each input was built from.

Nothing here calls into ``causalstruct``: the checks in ``checks.py`` compare
the program's answers with what these generators planted, never with the
program's own output.  Documents follow the file formats in the README.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

# ---------------------------------------------------------------------------
# Structure systems


@dataclass(frozen=True)
class PlantedSystem:
    """A square system built from a planted DAG of blocks.

    Variable ``i`` is named ``v<i>``; equation ``k`` (file order) is labelled
    ``e<k>``.  ``blocks`` lists the variables of each block in topological
    order.  Every equation of a block mentions all of that block's variables
    plus some parent variables from earlier blocks, so each block is exactly
    one cluster of the causal ordering: degree one for a singleton, feedback
    otherwise.
    """

    kind: str
    rows: tuple[frozenset[int], ...]
    eq_block: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.n}"

    @property
    def acyclic(self) -> bool:
        return all(len(block) == 1 for block in self.blocks)

    @cached_property
    def block_of(self) -> list[int]:
        owner = [0] * self.n
        for b, members in enumerate(self.blocks):
            for v in members:
                owner[v] = b
        return owner

    @cached_property
    def block_parents(self) -> list[set[int]]:
        parents: list[set[int]] = [set() for _ in self.blocks]
        for row, b in zip(self.rows, self.eq_block):
            parents[b].update(self.block_of[u] for u in row if self.block_of[u] != b)
        return parents

    @cached_property
    def block_children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.blocks]
        for b, parents in enumerate(self.block_parents):
            for a in parents:
                children[a].append(b)
        return children

    @cached_property
    def depth(self) -> list[int]:
        """Longest-path depth of each block in the planted block DAG."""
        depth = [0] * len(self.blocks)
        for b, parents in enumerate(self.block_parents):  # blocks are topological
            if parents:
                depth[b] = 1 + max(depth[a] for a in parents)
        return depth

    @cached_property
    def equations_of(self) -> list[list[int]]:
        eqs: list[list[int]] = [[] for _ in self.blocks]
        for e, b in enumerate(self.eq_block):
            eqs[b].append(e)
        return eqs

    def expected_clusters(self) -> set[tuple[frozenset[int], frozenset[int], int]]:
        """(equations, variables, order) of every cluster."""
        return {
            (frozenset(self.equations_of[b]), frozenset(members), self.depth[b])
            for b, members in enumerate(self.blocks)
        }

    def expected_variable_edges(self) -> set[tuple[int, int]]:
        edges = set()
        for row, b in zip(self.rows, self.eq_block):
            members = self.blocks[b]
            for u in row:
                if self.block_of[u] != b:
                    edges.update((u, w) for w in members)
        return edges

    def expected_block_edges(self) -> set[tuple[int, int]]:
        return {(a, b) for b, parents in enumerate(self.block_parents) for a in parents}

    def downstream_blocks(self, start: int) -> set[int]:
        """``start`` plus every block reachable from it."""
        seen = {start}
        frontier = [start]
        while frontier:
            for c in self.block_children[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return seen

    def downstream_variables(self, equation: int) -> frozenset[int]:
        hit = self.downstream_blocks(self.eq_block[equation])
        return frozenset(v for b in hit for v in self.blocks[b])

    def cyclic_witness(self) -> frozenset[int]:
        """Equations in feedback blocks or downstream of one.

        These are exactly the equations a single-variable pivot loop can
        never place.
        """
        stuck: set[int] = set()
        for b, members in enumerate(self.blocks):
            if len(members) > 1 and b not in stuck:
                stuck |= self.downstream_blocks(b)
        return frozenset(e for b in stuck for e in self.equations_of[b])

    def doc(self) -> dict:
        return {
            "variables": [f"v{i}" for i in range(self.n)],
            "equations": [
                {"label": f"e{k}", "vars": [f"v{v}" for v in sorted(row)]}
                for k, row in enumerate(self.rows)
            ],
        }


def planted_system(
    rng: random.Random, n: int, parents: int, feedback_share: float, max_block: int
) -> PlantedSystem:
    """Random block DAG with the equation order shuffled, as real files are.

    Each block is a singleton, or with probability ``feedback_share`` a
    feedback block of 2..``max_block`` variables.  Each equation draws
    ``parents`` distinct parent variables from all earlier blocks.
    """
    blocks = []
    v = 0
    while v < n:
        size = rng.randint(2, max_block) if rng.random() < feedback_share else 1
        size = min(size, n - v)
        blocks.append(tuple(range(v, v + size)))
        v += size
    rows = []
    eq_block = []
    for b, members in enumerate(blocks):
        earlier = members[0]
        for _ in members:
            picked = rng.sample(range(earlier), min(parents, earlier))
            rows.append(frozenset(members + tuple(picked)))
            eq_block.append(b)
    order = list(range(n))
    rng.shuffle(order)
    kind = "dag" if feedback_share == 0 else "feedback"
    return PlantedSystem(
        kind,
        tuple(rows[k] for k in order),
        tuple(eq_block[k] for k in order),
        tuple(blocks),
    )


def chain_system(n: int) -> PlantedSystem:
    """The adversarial augmenting chain.

    Equation k < n-1 is {v_k, v_k+1}; the last is {v0}.  Matching equations
    in file order, the last one needs an augmenting path through the whole
    chain.
    """
    rows = [frozenset((k, k + 1)) for k in range(n - 1)] + [frozenset((0,))]
    eq_block = [k + 1 for k in range(n - 1)] + [0]
    return PlantedSystem("chain", tuple(rows), tuple(eq_block), tuple((i,) for i in range(n)))


def structure_systems(seed: int, specs: list[dict]) -> list[PlantedSystem]:
    rng = random.Random(seed)
    systems = []
    for spec in specs:
        if spec["kind"] == "chain":
            systems.append(chain_system(spec["n"]))
        else:
            systems.append(
                planted_system(
                    rng,
                    spec["n"],
                    spec["parents"],
                    spec.get("feedback_share", 0.0),
                    spec.get("max_block", 1),
                )
            )
    return systems


# ---------------------------------------------------------------------------
# Belief networks


@dataclass(frozen=True)
class Network:
    """Node ``i`` is named ``x<i>``; parents always have smaller indices."""

    counts: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    cpt: tuple[tuple[tuple[float, ...], ...], ...]

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.n))

    def row(self, node: int, values) -> tuple[float, ...]:
        r = 0
        for p in self.parents[node]:
            r = r * self.counts[p] + values[p]
        return self.cpt[node][r]

    def ancestors(self, node: int) -> set[int]:
        seen: set[int] = set()
        frontier = [node]
        while frontier:
            for p in self.parents[frontier.pop()]:
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen

    def descendants(self, node: int) -> set[int]:
        return {v for v in range(self.n) if node in self.ancestors(v)}

    @functools.cache
    def marginal(self, node: int) -> list[float]:
        """Exact marginal of ``node``, enumerating only its ancestors."""
        scope = sorted(self.ancestors(node) | {node})
        cells: list[list[float]] = [[] for _ in range(self.counts[node])]
        values = [0] * self.n
        for combo in product(*(range(self.counts[v]) for v in scope)):
            p = 1.0
            for v, x in zip(scope, combo):
                values[v] = x
            for v in scope:
                p *= self.row(v, values)[values[v]]
            cells[values[node]].append(p)
        return [math.fsum(cell) for cell in cells]

    def doc(self) -> dict:
        names = self.names
        return {
            "nodes": [
                {
                    "name": names[i],
                    "outcomes": [f"o{j}" for j in range(self.counts[i])],
                    "parents": [names[p] for p in self.parents[i]],
                    "cpt": [list(row) for row in self.cpt[i]],
                }
                for i in range(self.n)
            ]
        }

    def thresholds(self) -> list[list[list[float]]]:
        """Cumulative thresholds per node and row, final entry exactly 1."""
        result = []
        for rows in self.cpt:
            node_rows = []
            for row in rows:
                acc = 0.0
                cumulative = []
                for j, p in enumerate(row[:-1]):
                    acc += p
                    # Trailing zero-probability outcomes own empty intervals.
                    cumulative.append(min(acc, 1.0) if any(row[j + 1:]) else 1.0)
                node_rows.append(cumulative + [1.0])
            result.append(node_rows)
        return result

    def threshold_doc(self) -> dict:
        names = self.names
        return {
            "equations": [
                {
                    "target": names[i],
                    "parents": [names[p] for p in self.parents[i]],
                    "thresholds": rows,
                }
                for i, rows in enumerate(self.thresholds())
            ]
        }


def probability_row(rng: random.Random, k: int, zero_prob: float) -> tuple[float, ...]:
    weights = [rng.random() + 1e-3 for _ in range(k)]
    for i in range(k):
        if rng.random() < zero_prob and sum(w > 0 for w in weights) > 1:
            weights[i] = 0.0
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_network(
    rng: random.Random,
    shapes: random.Random,
    max_nodes: int,
    max_outcomes: int,
    max_parents: int,
    parent_prob: float,
    zero_prob: float,
) -> Network:
    """Shaped like the acceptance suite's networks: 1..max_nodes nodes.

    ``shapes`` draws the node and outcome counts and the arcs, which fix the
    size of the joint and of the tables and so most of the cost; ``rng``
    draws the tables.
    """
    n = shapes.randint(1, max_nodes)
    counts = tuple(shapes.randint(2, max_outcomes) for _ in range(n))
    parents = []
    for i in range(n):
        pool = list(range(i))
        shapes.shuffle(pool)
        parents.append(tuple(sorted(p for p in pool[:max_parents] if shapes.random() < parent_prob)))
    cpt = tuple(
        tuple(probability_row(rng, counts[i], zero_prob) for _ in range(math.prod(counts[p] for p in ps)))
        for i, ps in enumerate(parents)
    )
    return Network(counts, tuple(parents), cpt)


def layered_network(rng: random.Random, nodes: int, outcomes: list[int], parents: int) -> Network:
    """Fixed shape, near-uniform tables: node i has min(i, parents) earlier parents.

    Outcome counts cycle through ``outcomes``.  Every row of a node with
    three or more outcomes gives exactly one seeded outcome probability zero;
    the others get weights in [1, 2).  The joint's support therefore has the
    same size for every seed, and so, once the draws nearly cover it, does
    the number of distinct assignments a sample tallies.
    """
    counts = tuple(outcomes[i % len(outcomes)] for i in range(nodes))
    cpt = []
    parent_sets = []
    for i, k in enumerate(counts):
        ps = tuple(sorted(rng.sample(range(i), min(i, parents))))
        rows = []
        for _ in range(math.prod(counts[p] for p in ps)):
            weights = [1.0 + rng.random() for _ in range(k)]
            if k >= 3:
                weights[rng.randrange(k)] = 0.0
            total = sum(weights)
            rows.append(tuple(w / total for w in weights))
        parent_sets.append(ps)
        cpt.append(tuple(rows))
    return Network(counts, tuple(parent_sets), tuple(cpt))


def intervention(rng: random.Random, network: Network, degenerate_prob: float):
    """A seeded (node, distribution) pair; sometimes a one-hot distribution."""
    node = rng.randrange(network.n)
    k = network.counts[node]
    if rng.random() < degenerate_prob:
        hot = rng.randrange(k)
        return node, tuple(1.0 if j == hot else 0.0 for j in range(k))
    return node, probability_row(rng, k, zero_prob=0.0)
