"""Graph helpers on small random graphs and on chains and rings thousands deep.

Every helper keeps its own stack, so chains and rings thousands of vertices
deep must work like short ones.  The recursive depth-first search in
``oracles`` is the reference for which cycle ``topological_order`` reports;
it is only run on graphs of at most 300 vertices, where its recursion stays
shallow.  Each walk reads every list entry exactly once, and the matching
every row entry twice on systems its Karp–Sipser start matches whole,
counted by the lists themselves rather than timed.  An edit of a checked
system reads only the rows of its one augmenting search, as many at 4n as
at n, and the ordering of an edit of an ordered system reads only the rows
of the clusters the edit changed, as many at 4n as at n.
``affected_variables`` reads only the clusters it returns and their
out-edges.  ``triangularize`` and ``is_triangularizable`` of an ordered
matrix read no row, and an edit builds its matrix reading no row entry of
the original.  The structure path leaves nothing but its result for the cyclic
collector to promote, counted through ``gc.callbacks``, not timed either.
"""

import builtins
import copy
import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from causalstruct import (
    Bbn,
    BbnNode,
    CycleError,
    CyclicStructureError,
    NotSelfContainedError,
    StructuralChange,
    StructureMatrix,
    affected_variables,
    apply_change,
    causal_ordering,
    check_system,
    validate,
)
from causalstruct import graphs, matching, ordering, triangular
from causalstruct.triangular import is_triangularizable, triangularize
from causalstruct.graphs import (
    strongly_connected_components,
    topological_order,
    topological_prefix,
)

from generators import chain_system
from oracles import recursive_find_cycle

try:  # imported here, so its import time does not count against a test's deadline
    import networkx as nx
except ImportError:
    nx = None

DEEP = 5000
# Vertex 0 is the deepest: its parent walk passes through every other vertex.
DEEPEST = list(range(DEEP - 1, -1, -1))


@st.composite
def paths(draw, max_n=DEEP):
    """Vertices 0..n-1 in a random order; each is the parent of the next."""
    n = draw(st.integers(1, max_n))
    path = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(path)
    return path


def chain_parents(path):
    parents = [[] for _ in path]
    for before, v in zip(path, path[1:]):
        parents[v].append(before)
    return parents


def ring_parents(path):
    parents = chain_parents(path)
    parents[path[0]].append(path[-1])
    return parents


def rotated_to_min(path):
    at = path.index(min(path))
    return tuple(path[at:] + path[:at])


@st.composite
def digraphs(draw, max_n=10, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]


def ring_network(path):
    return Bbn(
        tuple(
            BbnNode(f"v{v}", ("a", "b"), tuple(p), ((0.5, 0.5),) * 2 ** len(p))
            for v, p in enumerate(ring_parents(path))
        )
    )


def smallest_order(parents):
    """The smallest-index-first topological order, by repeated scans."""
    order: list[int] = []
    while len(order) < len(parents):
        placed = set(order)
        order.append(
            min(v for v, ps in enumerate(parents) if v not in placed and placed.issuperset(ps))
        )
    return order


def assert_cycle_is_the_reference(parents):
    try:
        expected = recursive_find_cycle(len(parents), parents)
    except ValueError:
        assert topological_order(parents) == smallest_order(parents)
        return
    with pytest.raises(CycleError) as info:
        topological_order(parents)
    assert info.value.members == expected


# Lists may repeat a vertex or name the vertex itself: repeated edges and self-loops.
@given(digraphs())
@example([[0]])
@example([[1, 1], [0]])
def test_reported_cycle_equals_the_recursive_reference(parents):
    assert_cycle_is_the_reference(parents)


@given(digraphs(max_n=300))
@settings(max_examples=60, deadline=None)
def test_reported_cycle_equals_the_recursive_reference_up_to_300_vertices(parents):
    assert_cycle_is_the_reference(parents)


def test_a_cyclic_order_runs_one_kahn_pass(monkeypatch):
    calls = []
    original = graphs.topological_prefix

    def counted(parents):
        calls.append(len(parents))
        return original(parents)

    monkeypatch.setattr(graphs, "topological_prefix", counted)
    with pytest.raises(CycleError) as info:
        topological_order([[], [0, 3], [1], [2]])
    assert info.value.members == (1, 2, 3)
    assert calls == [4]


@given(paths())
@example(DEEPEST)
@settings(max_examples=30, deadline=None)
def test_chains_sort_in_path_order_and_have_no_cycle(path):
    parents = chain_parents(path)
    assert topological_order(parents) == path
    assert topological_prefix(parents) == path


@given(paths())
@example(DEEPEST)
@settings(max_examples=30, deadline=None)
def test_rings_report_the_whole_ring_in_arrow_order(path):
    parents = ring_parents(path)
    assert topological_prefix(parents) == []
    with pytest.raises(CycleError) as info:
        topological_order(parents)
    assert info.value.members == rotated_to_min(path)


@given(paths(), st.integers(1, 50))
@example(DEEPEST, 50)
@settings(max_examples=30, deadline=None)
def test_prefix_stops_at_a_ring_and_everything_below_it(path, ring_size):
    """A ring fed by the first vertices of a chain stalls the chain below it."""
    ring = [len(path) + k for k in range(ring_size)]
    parents = chain_parents(path) + [[ring[k - 1]] for k in range(ring_size)]
    cut = len(path) // 2
    parents[path[cut]].append(ring[0])
    assert topological_prefix(parents) == path[:cut]
    with pytest.raises(CycleError) as info:
        topological_order(parents)
    assert info.value.members == tuple(ring)


@given(paths())
@example(DEEPEST)
@settings(max_examples=20, deadline=None)
def test_validate_names_a_deep_ring(path):
    report = validate(ring_network(path))
    expected = rotated_to_min(path)
    assert [issue.kind for issue in report.issues] == ["cycle"]
    assert report.issues[0].detail == "cycle through " + " -> ".join(f"v{v}" for v in expected)


def assert_components_ancestors_first(adjacency, components):
    """A sorted partition of the vertices in which no edge leads to a later component."""
    assert sorted(v for comp in components for v in comp) == list(range(len(adjacency)))
    assert all(comp == tuple(sorted(comp)) for comp in components)
    position = {v: c for c, comp in enumerate(components) for v in comp}
    for v, successors in enumerate(adjacency):
        assert all(position[w] <= position[v] for w in successors)


# Lists may repeat a vertex or name the vertex itself: repeated edges and self-loops.
@given(digraphs(min_n=0))
@example([])
@example([[0, 0], [1, 0, 1]])
@example([[1], [0], [0]])  # a later root's edge enters a finished component
@example([[1], [0, 2], [1]])  # a back edge to a vertex whose rank is already lowered
@example([[1], [0], [3], [2, 0]])  # root 2 reuses the stack positions [0, 1] freed
def test_components_partition_the_vertices_ancestors_first(adjacency):
    components = strongly_connected_components(adjacency)
    assert_components_ancestors_first(adjacency, components)


@given(digraphs(min_n=0))
@example([[1], [0], [0]])
@example([[1], [0, 2], [1]])
@example([[1], [0], [3], [2, 0]])
@pytest.mark.skipif(nx is None, reason="networkx is not installed")
def test_components_equal_networkx(adjacency):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(adjacency)))
    graph.add_edges_from((v, w) for v, successors in enumerate(adjacency) for w in successors)
    components = strongly_connected_components(adjacency)
    assert {frozenset(comp) for comp in components} == set(
        map(frozenset, nx.strongly_connected_components(graph))
    )


@given(paths())
@example(DEEPEST)
@settings(max_examples=30, deadline=None)
def test_chain_components_are_single_vertices_in_path_order(path):
    # Each vertex points at its predecessor on the path, so that one comes first.
    adjacency = chain_parents(path)
    components = strongly_connected_components(adjacency)
    assert components == [(v,) for v in path]


@given(paths())
@example(DEEPEST)
@settings(max_examples=30, deadline=None)
def test_ring_is_one_component(path):
    adjacency = ring_parents(path)
    assert strongly_connected_components(adjacency) == [tuple(sorted(path))]


COUNTED_N = 10_000


class Counted(list):
    """A list whose iterators add one to ``tally[0]`` for each entry they yield."""

    def __init__(self, entries, tally):
        super().__init__(entries)
        self.tally = tally

    def __iter__(self):
        for entry in super().__iter__():
            self.tally[0] += 1
            yield entry


def planted_precedence(feedback_share, n=COUNTED_N):
    """Parent lists of a planted DAG of blocks, with the vertices numbered at random.

    A block is a singleton or, with probability ``feedback_share``, a
    feedback block of 2..4 vertices.  Each vertex lists its block mates, then
    three distinct vertices of earlier blocks.
    """
    rng = random.Random(7)
    label = list(range(n))
    rng.shuffle(label)
    lists = [[] for _ in label]
    start = 0
    while start < n:
        size = rng.randint(2, 4) if rng.random() < feedback_share else 1
        block = range(start, min(start + size, n))
        for v in block:
            earlier = rng.sample(range(start), min(3, start))
            lists[label[v]] = [label[u] for u in block if u != v] + [label[u] for u in earlier]
        start = block.stop
    return lists


COUNTED_GRAPHS = {
    "chain": lambda: chain_parents(list(range(COUNTED_N - 1, -1, -1))),
    "ring": lambda: ring_parents(list(range(COUNTED_N - 1, -1, -1))),
    "feedback": lambda: planted_precedence(0.05),
    "dag": lambda: planted_precedence(0.0),
}


def entries_read(walk, graph):
    lists = COUNTED_GRAPHS[graph]()
    tally = [0]
    walk([Counted(entries, tally) for entries in lists])
    return tally[0], sum(map(len, lists))


@pytest.mark.parametrize("walk", [strongly_connected_components, topological_prefix])
@pytest.mark.parametrize("graph", ["chain", "ring", "feedback"])
def test_walks_read_each_entry_once(walk, graph):
    reads, nnz = entries_read(walk, graph)
    assert reads == nnz


@pytest.mark.parametrize("graph", ["chain", "dag"])
def test_an_acyclic_order_reads_each_entry_once(graph):
    reads, nnz = entries_read(topological_order, graph)
    assert reads == nnz


def planted_dag_rows(n=COUNTED_N):
    """Equation v holds variable v and three earlier ones; both are renumbered at random, apart."""
    rows = [[v, *parents] for v, parents in enumerate(planted_precedence(0.0, n))]
    random.Random(11).shuffle(rows)
    return rows


def overfull_rows():
    """``planted_dag_rows`` plus a row of two columns that no other row holds
    and a row repeating the first entry of the first row: one row too many."""
    rows = planted_dag_rows()
    return rows + [[COUNTED_N, COUNTED_N + 1], [rows[0][0]]]


COUNTED_SYSTEMS = {
    "dag": planted_dag_rows,
    "chain": lambda: list(chain_system(COUNTED_N).rows),
    "overfull": overfull_rows,
}


def counted_matching(monkeypatch, system):
    """The system's rows, its matching, and the entries the matching read.

    The matching keeps each row as ``tuple(sorted(row))``; the patched
    ``tuple`` keeps the sorted list as a ``Counted`` one instead, so only
    the matching's own passes over the rows are counted, not the copy."""
    rows = COUNTED_SYSTEMS[system]()
    tally = [0]
    monkeypatch.setattr(matching, "tuple", lambda entries: Counted(entries, tally), raising=False)
    return rows, matching.maximum_matching(rows), tally[0]


@pytest.mark.parametrize("system", ["dag", "chain"])
def test_the_matching_start_matches_every_row_and_no_search_runs(monkeypatch, system):
    rows, (match, reach), reads = counted_matching(monkeypatch, system)
    assert reach is None and set(match) == set(range(COUNTED_N))
    # One degree pass, one pass over each row the start matches, and no search.
    assert reads == 2 * sum(map(len, rows))


def test_the_matching_start_keeps_going_past_a_matched_column(monkeypatch):
    """The start pops a degree-1 column whose one row it has already matched
    and goes on.  Stopping there leaves the same unmatched row and reach to
    the searches, which then read 529,682 entries: only the count tells."""
    rows, (match, reach), reads = counted_matching(monkeypatch, "overfull")
    assert [i for i, j in enumerate(match) if j == -1] == [COUNTED_N + 1]
    assert (len(reach[0]), len(reach[1])) == (1007, 1006)
    assert reads == 114_877


def planted_dag_system(n):
    """``planted_dag_rows(n)`` as a matrix, named as ``chain_system`` names its own."""
    rows = planted_dag_rows(n)
    return StructureMatrix(
        tuple(f"v{v}" for v in range(n)), tuple(f"e{e}" for e in range(n)), tuple(map(frozenset, rows))
    )


@pytest.mark.parametrize("system", [chain_system, planted_dag_system], ids=["chain", "dag"])
@pytest.mark.parametrize("shape, expected", [("drop-parents", 1), ("root-row", 2)])
def test_an_edit_reads_as_many_entries_at_4n_as_at_n(monkeypatch, system, shape, expected):
    """The benchmark's two edits of a checked system: the equation of the
    middle variable drops its parents, which frees the column its new row
    holds, or takes the row of the equation with no parents, whose one
    column leads the search to that equation and no further.  Either way the
    search reads one or two entries, not the 2·nnz of a matching from scratch."""
    tally = [0]
    monkeypatch.setattr(matching, "sorted", lambda row: Counted(builtins.sorted(row), tally), raising=False)
    for n in (COUNTED_N // 4, COUNTED_N):
        matrix = system(n)
        match = check_system(matrix).matching
        e = match.index(n // 2)
        root = next(r for r, row in enumerate(matrix.rows) if len(row) == 1)
        row = {n // 2} if shape == "drop-parents" else matrix.rows[root]
        change = StructuralChange("replace_equation", matrix.equation_labels[e], tuple(f"v{v}" for v in row))
        tally[0] = 0
        try:
            assert apply_change(matrix, change).rows[e] == {n // 2}
        except NotSelfContainedError as refused:
            assert shape == "root-row" and refused.report.violation.equations == {e, root}
        assert tally[0] == expected


class CountedRow(frozenset):
    """A row whose iterators add one to ``tally[0]`` for each entry they yield."""

    tally = [0]

    def __iter__(self):
        for entry in super().__iter__():
            CountedRow.tally[0] += 1
            yield entry


EDITS = {
    # The benchmark's edit: the middle variable's equation drops its parents.
    "drop-parents": lambda matrix, e, n: StructuralChange(
        "replace_equation", matrix.equation_labels[e], (f"v{n // 2}",)
    ),
    # A new variable, defined from the middle variable.
    "add-variable": lambda matrix, e, n: StructuralChange("add_exogenous_variable", "new", ("new", f"v{n // 2}")),
    # The benchmark's refused edit: the row of the equation with no parents.
    "root-row": lambda matrix, e, n: StructuralChange(
        "replace_equation",
        matrix.equation_labels[e],
        tuple(f"v{v}" for v in next(row for row in matrix.rows if len(row) == 1)),
    ),
}


@pytest.mark.parametrize("system", [chain_system, planted_dag_system], ids=["chain", "dag"])
@pytest.mark.parametrize("shape, expected", [("drop-parents", 1), ("add-variable", 2), ("root-row", None)])
def test_a_reordering_reads_as_many_entries_at_4n_as_at_n(system, shape, expected):
    """The ordering of an edit of an ordered system reads the rows only of
    the clusters whose matching or rows the edit changed: the edited
    equation's own row, here, whatever else lies downstream of it.  On the
    chain that is half the system, whose orders all move, yet they are
    read off the kept analysis.  The refused edit leaves nothing to order."""
    for n in (COUNTED_N // 4, COUNTED_N):
        plain = system(n)
        matrix = StructureMatrix(plain.variable_names, plain.equation_labels, tuple(map(CountedRow, plain.rows)))
        causal_ordering(matrix)
        e = check_system(matrix).matching.index(n // 2)
        try:
            edited = apply_change(matrix, EDITS[shape](matrix, e, n))
        except NotSelfContainedError:
            assert expected is None
            continue
        object.__setattr__(edited, "rows", tuple(map(CountedRow, edited.rows)))
        CountedRow.tally[0] = 0
        ordering = causal_ordering(edited)
        assert CountedRow.tally[0] == expected
        assert "_edit_of" in vars(edited) and ordering == causal_ordering(plain_twin(edited))


def plain_twin(matrix):
    """``matrix`` built anew, with plain rows and nothing kept."""
    return StructureMatrix(matrix.variable_names, matrix.equation_labels, tuple(map(frozenset, matrix.rows)))


class CountedReads:
    """A sequence that notes its reads: the indices read, in ``indices``,
    how many index reads there were, in ``reads``, and the entries of the
    slices read, in ``entries``."""

    def __init__(self, items):
        self.items = items
        self.indices = set()
        self.reads = self.entries = 0

    def __getitem__(self, at):
        got = self.items[at]
        if type(at) is slice:
            self.entries += len(got)
        else:
            self.indices.add(at)
            self.reads += 1
        return got

    def __len__(self):
        return len(self.items)


@pytest.mark.parametrize("system", [chain_system, planted_dag_system], ids=["chain", "dag"])
def test_affected_variables_visits_only_what_it_returns(system):
    """``affected_variables`` of an ordering that ``causal_ordering`` made
    reads the links and equations of the clusters it returns and of no
    other: as many equations as its result holds, and those clusters'
    out-edges."""
    matrix = system(COUNTED_N)
    ordering = causal_ordering(matrix)
    kept = vars(ordering)["_analysis"]
    for e in (matrix.n // 2, next(e for e, row in enumerate(matrix.rows) if len(row) == 1)):
        counted = copy.copy(kept)
        counted.last, counted.child, counted.pool = map(CountedReads, (kept.last, kept.child, kept.pool))
        counting = causal_ordering(matrix)
        object.__setattr__(counting, "_analysis", counted)
        result = affected_variables(counting, e)
        returned = {c for c, cluster in enumerate(ordering.clusters) if cluster.variables <= result}
        out_edges = sum(1 for a, _ in ordering.cluster_edges if a in returned)
        assert counted.last.indices == returned and counted.last.reads == len(returned)
        assert counted.child.reads == out_edges
        assert counted.pool.entries == len(result)


def feedback_chain_system(n):
    """``chain_system(n)`` whose middle equation also mentions the variable
    two along: it and the next equation form a feedback pair, and every
    equation after them is downstream of it."""
    plain = chain_system(n)
    k = n // 2
    rows = plain.rows[:k] + (plain.rows[k] | {k + 2},) + plain.rows[k + 1:]
    return StructureMatrix(plain.variable_names, plain.equation_labels, rows)


def counted_rows(matrix):
    """``matrix``'s rows as ``CountedReads`` of their sorted entries."""
    return tuple(CountedReads(sorted(row)) for row in matrix.rows)


def row_entries_read(rows):
    return sum(row.reads + row.entries for row in rows)


def triangular_outcome(matrix):
    """``triangularize``'s result, or the equations it cannot place, and ``is_triangularizable``."""
    try:
        return triangularize(matrix), is_triangularizable(matrix)
    except CyclicStructureError as exc:
        return exc.remaining_equations, is_triangularizable(matrix)


@pytest.mark.parametrize(
    "system", [chain_system, planted_dag_system, feedback_chain_system], ids=["chain", "dag", "feedback"]
)
def test_an_ordered_matrix_triangularizes_reading_no_row(monkeypatch, system):
    """``triangularize`` and ``is_triangularizable`` of an ordered matrix read
    their answers off its kept analysis: no row entry is read and no
    ``precedence`` is built, and the answers equal the precedence path's on
    the same matrix never ordered."""
    matrix = system(COUNTED_N)
    expected = triangular_outcome(plain_twin(matrix))
    causal_ordering(matrix)
    rows = counted_rows(matrix)
    object.__setattr__(matrix, "rows", rows)

    def refuse(*args):
        raise AssertionError("precedence built for an ordered matrix")

    monkeypatch.setattr(triangular, "precedence", refuse)
    assert triangular_outcome(matrix) == expected
    assert expected[1] == (system is not feedback_chain_system)
    assert row_entries_read(rows) == 0


@pytest.mark.parametrize("system", [chain_system, planted_dag_system], ids=["chain", "dag"])
@pytest.mark.parametrize("shape", sorted(EDITS))
def test_an_edit_builds_its_matrix_reading_as_many_entries_at_4n_as_at_n(monkeypatch, system, shape):
    """``apply_change`` builds the edited matrix checking only the row and
    the name the edit adds: the original's rows were checked when it was
    built.  That path reads no entry of the original's rows, and an
    accepted edit as a whole reads only the entries of its one augmenting
    search, as many at 4n as at n, not the O(nnz) of a constructor's check.
    (The refused edit's report then scans the rows for unused variables.)"""
    systems = []
    for n in (COUNTED_N // 4, COUNTED_N):
        plain = system(n)
        change = EDITS[shape](plain, check_system(plain).matching.index(n // 2), n)
        try:
            systems.append((plain, change, apply_change(plain, change)))
        except NotSelfContainedError:
            systems.append((plain, change, None))
    built = []
    build = StructureMatrix._edited

    def counted_build(matrix, *args):
        before = row_entries_read(matrix.rows)
        edited = build(matrix, *args)
        built.append(row_entries_read(matrix.rows) - before)
        return edited

    monkeypatch.setattr(StructureMatrix, "_edited", counted_build)
    reads = []
    for plain, change, expected in systems:
        rows = counted_rows(plain)
        matrix = StructureMatrix(plain.variable_names, plain.equation_labels, rows)
        check_system(matrix)
        for row in rows:
            row.reads = row.entries = 0
        try:
            edited = apply_change(matrix, change)
        except NotSelfContainedError:
            edited = None
        reads.append(row_entries_read(rows))
        assert (edited is None) == (expected is None) == (shape == "root-row")
        assert edited is None or plain_twin(edited) == expected
    assert built == [0, 0]
    assert shape == "root-row" or reads[0] == reads[1] <= 2


def young_survivors(call):
    """How many tracked objects ``call()`` made outlived a young collection,
    and how many of its result's tracked objects are new.

    After a full collection every older object sits in the oldest
    generation; their ids are noted, and the list holding them keeps those
    ids from being reused.  After each collection during the call, the
    objects of the generation its survivors moved to that are not older are
    survivors.  Only ids are kept, so no object lives longer for being
    counted (and an id that a later survivor reuses is counted once).
    """
    found = set()  # ids in a generation that a collection's survivors moved to

    def watch(phase, info):
        if phase == "stop":
            found.update(map(id, gc.get_objects(min(info["generation"] + 1, 2))))

    gc.collect()
    held = gc.get_objects()
    older = set(map(id, held))
    gc.callbacks.append(watch)
    try:
        result = call()
    finally:
        gc.callbacks.remove(watch)
    found -= older
    kept = set()
    stack = [result]
    while stack:
        obj = stack.pop()
        if id(obj) not in kept and id(obj) not in older and gc.is_tracked(obj):
            kept.add(id(obj))
            stack.extend(gc.get_referents(obj))
    return len(found), len(kept)


@pytest.fixture(scope="module")
def checked_dag():
    """``planted_dag_system(COUNTED_N)``, checked, with its causal ordering."""
    matrix = planted_dag_system(COUNTED_N)
    return matrix, causal_ordering(matrix)


# An equation with no parents: every cluster that holds one of its children's
# variables, and so on down, is affected.
GC_CALLS = {
    "causal_ordering": lambda matrix, _: causal_ordering(matrix),
    "triangularize": lambda matrix, _: triangularize(matrix),
    "affected_variables": lambda matrix, ordering: affected_variables(
        ordering, next(e for e, row in enumerate(matrix.rows) if len(row) == 1)
    ),
}


@pytest.mark.parametrize("call", list(GC_CALLS))
def test_only_the_result_outlives_a_young_collection(checked_dag, call):
    """The structure path keeps its per-equation scaffolding in tuples of
    ints, which the collector untracks at its first pass, or in flat lists
    of ints, so the objects that outlive a young collection are the
    result's own, plus a few live at the moment (frames' iterators, nested
    comprehensions' functions).  A list per equation would add 10,000, and
    each survivor counts toward a full collection of the whole heap."""
    matrix, ordering = checked_dag
    survivors, kept = young_survivors(lambda: GC_CALLS[call](matrix, ordering))
    assert survivors <= kept + COUNTED_N // 20


def test_clusters_sort_by_one_int_each(monkeypatch):
    """The clusters' canonical order sorts one int key per cluster, with no
    key tuple each.  A tuple of ints is untracked at its first pass, so the
    survivor count above cannot see one; this counts the keys' types."""
    keys = []

    def sorting(items, key):
        keys.extend(map(type, map(key, items)))
        return builtins.sorted(items, key=key)

    monkeypatch.setattr(ordering, "sorted", sorting, raising=False)
    clusters = causal_ordering(planted_dag_system(300)).clusters
    assert set(keys) == {int} and len(keys) == len(clusters) == 300
