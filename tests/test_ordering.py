import random

import pytest

from causalstruct import (
    NotSelfContainedError,
    StructureMatrix,
    causal_ordering,
    ordering_to_dot,
)

from generators import permute, random_self_contained_system
from oracles import naive_causal_ordering


def clusters_by_name(ordering):
    matrix = ordering.matrix
    return {
        (
            frozenset(matrix.equation_labels[e] for e in c.equations),
            frozenset(matrix.variable_names[v] for v in c.variables),
            c.order,
        )
        for c in ordering.clusters
    }


def edges_by_name(ordering):
    matrix = ordering.matrix
    return {
        (matrix.variable_names[u], matrix.variable_names[v])
        for u, v in ordering.variable_edges
    }


class TestPaperModels:
    def test_chain_model(self, model3):
        ordering = causal_ordering(model3)
        assert clusters_by_name(ordering) == {
            (frozenset({"e1"}), frozenset({"d"}), 0),
            (frozenset({"e2"}), frozenset({"a"}), 1),
            (frozenset({"e3"}), frozenset({"m"}), 2),
        }
        assert edges_by_name(ordering) == {("d", "a"), ("a", "m")}

    def test_extended_model(self, model5):
        ordering = causal_ordering(model5)
        assert clusters_by_name(ordering) == {
            (frozenset({"e1"}), frozenset({"d"}), 0),
            (frozenset({"e4"}), frozenset({"b"}), 0),
            (frozenset({"e2"}), frozenset({"a"}), 1),
            (frozenset({"e3"}), frozenset({"m"}), 2),
        }
        assert edges_by_name(ordering) == {("d", "a"), ("a", "m"), ("b", "m")}
        # canonical listing: ascending (order, smallest variable index)
        assert [sorted(c.variables) for c in ordering.clusters] == [[2], [3], [1], [0]]

    def test_merged_row_model_collapses(self, model4):
        ordering = causal_ordering(model4)
        assert len(ordering.clusters) == 1
        cluster = ordering.clusters[0]
        assert cluster.degree == 3
        assert cluster.order == 0
        assert ordering.variable_edges == frozenset()
        assert ordering.cluster_edges == frozenset()

    def test_not_self_contained_rejected(self):
        matrix = StructureMatrix(("x", "y"), ("e1", "e2"), (frozenset({0}), frozenset({0})))
        with pytest.raises(NotSelfContainedError):
            causal_ordering(matrix)


class TestMinimalSubsets:
    """The minimal self-contained subsets are the order-0 clusters."""

    @staticmethod
    def order_zero(matrix):
        return [c for c in causal_ordering(matrix).clusters if c.order == 0]

    def test_extended_model(self, model5):
        subsets = self.order_zero(model5)
        labelled = [
            frozenset(model5.equation_labels[e] for e in s.equations) for s in subsets
        ]
        assert labelled == [frozenset({"e1"}), frozenset({"e4"})]

    def test_chain_model(self, model3):
        subsets = self.order_zero(model3)
        assert [s.equations for s in subsets] == [frozenset({0})]

    def test_feedback_pair(self, feedback2):
        subsets = self.order_zero(feedback2)
        assert [s.equations for s in subsets] == [frozenset({0, 1})]
        assert subsets[0].variables == frozenset({0, 1})


class TestAgainstNaiveOracle:
    def test_paper_models(self, model3, model4, model5, feedback2):
        for matrix in (model3, model4, model5, feedback2):
            self.check(matrix)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_systems(self, seed):
        rng = random.Random(seed)
        matrix = random_self_contained_system(rng, max_n=10, plant_cycle=seed % 3 == 0)
        self.check(matrix)

    @staticmethod
    def check(matrix):
        ordering = causal_ordering(matrix)
        expected_clusters, expected_edges = naive_causal_ordering(matrix)
        assert {
            (c.equations, c.variables, c.order) for c in ordering.clusters
        } == expected_clusters
        assert set(ordering.variable_edges) == expected_edges


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_partition_and_orders(self, seed):
        matrix = random_self_contained_system(random.Random(seed), max_n=10)
        ordering = causal_ordering(matrix)

        all_vars = [v for c in ordering.clusters for v in c.variables]
        all_eqs = [e for c in ordering.clusters for e in c.equations]
        assert sorted(all_vars) == list(range(matrix.n))
        assert sorted(all_eqs) == list(range(matrix.n))
        for c in ordering.clusters:
            assert len(c.equations) == len(c.variables)
            assert c.degree >= 1

        # order = length of the longest cluster-edge path reaching the cluster
        preds = {i: set() for i in range(len(ordering.clusters))}
        for a, b in ordering.cluster_edges:
            preds[b].add(a)
        for i, c in enumerate(ordering.clusters):
            if preds[i]:
                assert c.order == 1 + max(ordering.clusters[a].order for a in preds[i])
            else:
                assert c.order == 0

        # cluster edges coincide with variable edges lifted to clusters
        cluster_of = {v: ci for ci, c in enumerate(ordering.clusters) for v in c.variables}
        lifted = {(cluster_of[u], cluster_of[v]) for u, v in ordering.variable_edges}
        assert lifted == set(ordering.cluster_edges)

    @pytest.mark.parametrize("seed", range(25))
    def test_edges_always_point_to_strictly_later_clusters(self, seed):
        # Variable edges originate only from previously solved variables, so
        # they can never close a cycle, feedback clusters or not.
        matrix = random_self_contained_system(
            random.Random(seed), max_n=8, plant_cycle=seed % 2 == 0
        )
        ordering = causal_ordering(matrix)
        order = {v: c.order for c in ordering.clusters for v in c.variables}
        for u, v in ordering.variable_edges:
            assert u != v  # no self-loops, ever
            assert order[u] < order[v]
        for a, b in ordering.cluster_edges:
            assert ordering.clusters[a].order < ordering.clusters[b].order

    @pytest.mark.parametrize("seed", range(20))
    def test_determinism_under_permutation(self, seed):
        rng = random.Random(seed)
        matrix = random_self_contained_system(rng, max_n=9, plant_cycle=True)
        row_perm = list(range(matrix.n))
        col_perm = list(range(matrix.n))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        permuted = permute(matrix, row_perm, col_perm)

        original = causal_ordering(matrix)
        shuffled = causal_ordering(permuted)
        assert clusters_by_name(original) == clusters_by_name(shuffled)
        assert edges_by_name(original) == edges_by_name(shuffled)


class TestDot:
    def test_chain_edges_present(self, model3):
        text = ordering_to_dot(causal_ordering(model3))
        assert "  d -> a;" in text.splitlines()
        assert "  a -> m;" in text.splitlines()

    def test_single_variable_system(self):
        matrix = StructureMatrix(("x",), ("e1",), (frozenset({0}),))
        text = ordering_to_dot(causal_ordering(matrix))
        assert "x;" in text
        assert "->" not in text

    def test_extended_model_edges(self, model5):
        text = ordering_to_dot(causal_ordering(model5))
        for edge in ("d -> a", "a -> m", "b -> m"):
            assert edge in text

    def test_feedback_cluster_rendered_as_subgraph(self, feedback2):
        text = ordering_to_dot(causal_ordering(feedback2))
        assert 'label="degree=2";' in text
        assert "rank=same;" in text
        assert "->" not in text  # no intra-cluster edges drawn

    def test_names_needing_quotes(self):
        matrix = StructureMatrix.from_names(
            ["belt use", "graph"],
            [("e1", ["belt use"]), ("e2", ["belt use", "graph"])],
        )
        text = ordering_to_dot(causal_ordering(matrix))
        assert '"belt use" -> "graph";' in text
        # a trailing newline must not let a name pass as a bare identifier
        matrix = StructureMatrix.from_names(
            ["a", "a\n", "node\n"],
            [("e1", ["a"]), ("e2", ["a", "a\n"]), ("e3", ["a\n", "node\n"])],
        )
        lines = ordering_to_dot(causal_ordering(matrix)).split(";\n")
        assert '  a -> "a\n"' in lines
        assert '  "a\n" -> "node\n"' in lines
        assert "  a -> a" not in lines


def planted_feedback_system(rng, n, parents, cycles):
    """DAG-ordered rows plus a few planted short cycles, shuffled.

    Equation i determines variable i and draws up to ``parents`` earlier
    variables, half of them from the last 40 so orders run deep.  Each
    planted cycle chains a run of 2-4 consecutive variables and closes it.
    """
    rows = []
    for i in range(n):
        pool = range(max(0, i - 40), i) if rng.random() < 0.5 else range(i)
        rows.append({i, *rng.sample(pool, min(parents, len(pool)))})
    for _ in range(cycles):
        size = rng.randint(2, 4)
        start = rng.randrange(n - size)
        for j in range(start + 1, start + size):
            rows[j].add(j - 1)
        rows[start].add(start + size - 1)
    matrix = StructureMatrix(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"e{i}" for i in range(n)),
        tuple(frozenset(row) for row in rows),
    )
    row_perm, col_perm = list(range(n)), list(range(n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return permute(matrix, row_perm, col_perm)


def networkx_ordering(matrix, nx):
    """Clusters, orders and edges from networkx's matching and condensation."""
    graph = nx.Graph()
    graph.add_nodes_from(("e", e) for e in range(matrix.n))
    graph.add_edges_from((("e", e), ("v", v)) for e, row in enumerate(matrix.rows) for v in row)
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=[("e", e) for e in range(matrix.n)])
    match = [matching[("e", e)][1] for e in range(matrix.n)]
    equation_of = {v: e for e, v in enumerate(match)}

    influence = nx.DiGraph()
    influence.add_nodes_from(range(matrix.n))
    influence.add_edges_from((u, v) for e, v in enumerate(match) for u in matrix.rows[e] if u != v)
    condensed = nx.condensation(influence)
    level = {}
    for c in nx.topological_sort(condensed):
        level[c] = max((level[p] + 1 for p in condensed.predecessors(c)), default=0)

    component = condensed.graph["mapping"]
    comps = sorted(condensed, key=lambda c: (level[c], min(condensed.nodes[c]["members"])))
    position = {c: k for k, c in enumerate(comps)}
    clusters = [
        (
            frozenset(equation_of[v] for v in condensed.nodes[c]["members"]),
            frozenset(condensed.nodes[c]["members"]),
            level[c],
        )
        for c in comps
    ]
    cluster_edges = {(position[a], position[b]) for a, b in condensed.edges}
    variable_edges = {
        (u, w)
        for e, v in enumerate(match)
        for u in matrix.rows[e]
        if component[u] != component[v]
        for w in condensed.nodes[component[v]]["members"]
    }
    return clusters, cluster_edges, variable_edges


@pytest.mark.parametrize("seed, cycles", [(0, 0), (1, 12), (2, 30)])
def test_large_systems_match_networkx(seed, cycles):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    matrix = planted_feedback_system(rng, rng.randint(900, 1100), 3, cycles)
    ordering = causal_ordering(matrix)
    clusters, cluster_edges, variable_edges = networkx_ordering(matrix, nx)
    assert [(c.equations, c.variables, c.order) for c in ordering.clusters] == clusters
    assert ordering.cluster_edges == cluster_edges
    assert ordering.variable_edges == variable_edges
    if cycles:
        assert max(c.degree for c in ordering.clusters) > 1
    assert max(c.order for c in ordering.clusters) > 10
