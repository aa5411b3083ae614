"""Causal ordering of a self-contained structure matrix.

The ordering partitions equations and variables into clusters (minimal
self-contained subsets), stamps each cluster with the step at which the
recursive identify-solve-substitute procedure would reach it, and draws
precedence edges from already-solved variables into each cluster.

Instead of enumerating subsets, the implementation matches each equation to
one of its variables and lets every equation follow the equations matched
to its other variables.  The clusters are the strongly connected components
of that equation precedence, and one Tarjan pass keeping one rank per
equation (Tarjan 1972; Pearce 2016) yields them ancestors first, so each
cluster's order (one more than the largest among its predecessors, else 0)
and in-edges are read off as it is finished.  That is
the square Dulmage-Mendelsohn decomposition (Iwasaki & Simon 1994, "Causality
and model abstraction"), computed as in Pothen & Fan (1990).  The result is
matching-independent and held against a brute-force oracle in the tests.

A matrix keeps one analysis, as flat ``array('i')`` values (``_Analysis``),
and every ordering of it reads its clusters and edges off that.  A matrix
that ``apply_change`` made from an ordered one is analysed by reordering
only the edited equation's cluster and the clusters downstream of it, over
the matching the edit's one augmenting search left; the rest of the
original's analysis is kept as it is (``apply_change`` says why it cannot
move).  An analysis from scratch is the same reordering with nothing kept.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property

from .dotutil import _digraph, dot_id
from .graphs import strongly_connected_components
from .matching import maximum_matching
from .structure import StructureMatrix, _Record, _require_self_contained, _store

# A cluster's key is ``order << _SHIFT | lead``, its smallest variable in
# the low bits: one int sorts clusters by (order, smallest variable).
_SHIFT = 32


class Cluster(_Record):
    """A minimal self-contained subset: equations, their variables, order."""

    __slots__ = _fields = ("equations", "variables", "order")

    # Its own constructor, though it checks nothing: causal_ordering builds
    # one per cluster, thousands per ordering of a large system, and this
    # one takes 0.5 us against the shared one's 0.95 us (timeit, Python 3.11).
    def __init__(self, equations: frozenset[int], variables: frozenset[int], order: int):
        _store(self, "equations", equations)
        _store(self, "variables", variables)
        _store(self, "order", order)

    @property
    def degree(self) -> int:
        return len(self.equations)


class CausalOrdering(_Record):
    """Clusters in canonical order plus cluster- and variable-level edges.

    Clusters are sorted by (order, smallest variable index).  Cluster edges
    are pairs of positions in ``clusters``; variable edges are pairs of
    variable indices, each meaning the source is a direct causal predecessor
    of the target.  The cluster of a variable or an equation is the one
    whose set holds it.

    An ordering that ``causal_ordering`` returns holds its matrix and the
    matrix's kept analysis, and reads each of the other three fields off
    that analysis on first use.  One built from its four fields holds them
    as given.  Either way the fields are its value: ``==``, hashing,
    ``repr``, pickling and copying read them, and never the analysis.
    """

    _fields = ("matrix", "clusters", "cluster_edges", "variable_edges")

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        return self._analysis.clusters()

    @cached_property
    def cluster_edges(self) -> frozenset[tuple[int, int]]:
        return self._analysis.cluster_edges()

    @cached_property
    def variable_edges(self) -> frozenset[tuple[int, int]]:
        return self._analysis.variable_edges()


class _Analysis:
    """One causal ordering as flat int arrays, which the collector never scans.

    - ``match[e]`` is the variable equation e is matched to and ``owner[v]``
      the equation matched to variable v: the perfect matching it was read off;
    - ``cluster[e]`` is the canonical position of equation e's cluster;
    - ``key[c]`` is ``order << 32 | lead`` of the cluster at position c,
      lead being its smallest variable, so ``key`` ascends;
    - ``start[c]`` is where that cluster's segment of ``pool`` starts: two
      counts a and b, its a equations, then the b equations outside it that
      its equations follow (its cross-cluster precedence pairs, which
      ``variable_edges`` reads);
    - ``last[c]`` is the cluster's latest link to a child cluster, or -1:
      link k leads to the cluster of equation ``child[k]``, and
      ``before[k]`` is the same cluster's link before it, or -1;
    - ``waste`` counts the entries of ``pool`` and ``child`` that nothing
      reaches any longer.

    An edit's reordering copies the arrays and appends what it rewrites, so
    every segment and link it keeps stays where it was.
    """

    __slots__ = ("match", "owner", "cluster", "key", "start", "pool", "last", "before", "child", "waste")

    def __init__(self, match, owner, cluster, key, start, pool, last, before, child, waste):
        self.match, self.owner, self.cluster, self.key, self.start = match, owner, cluster, key, start
        self.pool, self.last, self.before, self.child, self.waste = pool, last, before, child, waste

    def members(self, c: int) -> array:
        s = self.start[c]
        return self.pool[s + 2:s + 2 + self.pool[s]]

    def children(self, c: int) -> list[int]:
        """One equation of each child cluster of cluster c."""
        before, child = self.before, self.child
        found = []
        k = self.last[c]
        while k != -1:
            found.append(child[k])
            k = before[k]
        return found

    def downstream(self, *clusters: int) -> list[int]:
        """The given clusters, distinct, and every cluster below them, in the order reached."""
        last, before, child, cluster = self.last, self.before, self.child, self.cluster
        seen = set(clusters)
        reached = list(clusters)
        for c in reached:
            k = last[c]
            while k != -1:
                d = cluster[child[k]]
                if d not in seen:
                    seen.add(d)
                    reached.append(d)
                k = before[k]
        return reached

    def affected(self, e: int) -> frozenset[int]:
        if not 0 <= e < len(self.cluster):
            raise KeyError(f"equation index {e} not in this system")
        match = self.match
        return frozenset([match[u] for c in self.downstream(self.cluster[e]) for u in self.members(c)])

    def clusters(self) -> tuple[Cluster, ...]:
        pool, at = self.pool, self.match.__getitem__
        # Equal sets are one object: a singleton {k} serves as one cluster's
        # equations and as another's variables.
        shared = {}.setdefault
        clusters = []
        for s, key in zip(self.start, self.key):
            equations = pool[s + 2:s + 2 + pool[s]]
            es, vs = frozenset(equations), frozenset(map(at, equations))
            clusters.append(Cluster(shared(es, es), shared(vs, vs), key >> _SHIFT))
        return tuple(clusters)

    # Each edge frozenset is copied from its own set: a copy sizes its table
    # to fit, half what building from a generator leaves.
    def cluster_edges(self) -> frozenset[tuple[int, int]]:
        before, child, cluster = self.before, self.child, self.cluster
        edges = set()
        for c, k in enumerate(self.last):
            while k != -1:
                edges.add((c, cluster[child[k]]))
                k = before[k]
        return frozenset(edges)

    def variable_edges(self) -> frozenset[tuple[int, int]]:
        pool, match = self.pool, self.match
        return frozenset(
            {
                (match[p], match[u])
                for s in self.start
                for u in pool[s + 2:s + 2 + pool[s]]
                for p in pool[s + 2 + pool[s]:s + 2 + pool[s] + pool[s + 1]]
            }
        )


_EMPTY = _Analysis(*[array("i")] * 3, array("q"), *[array("i")] * 5, 0)  # never written to


def causal_ordering(matrix: StructureMatrix) -> CausalOrdering:
    """Compute clusters, orders and precedence edges for a self-contained system.

    The matrix keeps the analysis: a second ordering of it runs no
    matching, component walk or precedence pass, and an ordering of a
    matrix that ``apply_change`` made from an ordered one reorders only the
    clusters the edit can move.
    """
    _require_self_contained(matrix)
    ordering = CausalOrdering.__new__(CausalOrdering)
    _store(ordering, "matrix", matrix)
    _store(ordering, "_analysis", matrix._analysis)
    return ordering


def _analyse(matrix: StructureMatrix) -> _Analysis:
    """The analysis ``StructureMatrix._analysis`` keeps; the matrix is self-contained."""
    edit = vars(matrix).get("_edit_of")
    if edit is not None:
        kept, e = edit
        return _reorder(matrix.rows, matrix._report.matching, kept, e)
    # From scratch, over the analysis's one matching, its own: the gate's
    # kept one would do, but bench/test_bench.py pins two maximum_matching
    # calls for an ordering of a fresh matrix.  ROADMAP item 2 removes this
    # call after the benchmark change that lifts that pin.
    match, _ = maximum_matching(matrix.rows)
    return _reorder(matrix.rows, match, _EMPTY, 0)


def _reorder(rows, match, kept: _Analysis, e: int) -> _Analysis:
    """The analysis of ``rows`` under the perfect matching ``match``.

    ``kept`` is the analysis of these rows before row e was replaced, or,
    for e == len(kept.match), before row e was added with variable e, and
    ``match`` is the matching the edit's augmenting search left, which
    equals ``kept.match`` outside U: e's cluster and the clusters
    downstream of it.  Only U is reordered, for the rest cannot move (see
    ``apply_change``).  With ``_EMPTY`` kept, every row is new and the whole
    system is ordered.

    Each equation of U is a node.  A cluster of U that holds e or an
    equation whose match changed is opened: its rows are read.  Every other
    cluster of U is whole: its rows and matching are unchanged, so its first
    equation takes the equations the cluster follows, read off the
    variables they were matched to, and a ring through its equations keeps
    them in one component.  The components of the nodes' precedence are U's
    new clusters, placed among the kept ones by key.  Once half of what
    ``kept`` holds is waste, nothing is kept.
    """
    if 2 * kept.waste > len(kept.pool) + len(kept.child):
        kept = _EMPTY
    n, old_n = len(rows), len(kept.match)
    k_match, k_cluster, k_key, k_start, k_pool = kept.match, kept.cluster, kept.key, kept.start, kept.pool
    gone = kept.downstream(k_cluster[e]) if e < old_n else []
    opened = list(range(old_n, n))
    whole = []  # per cluster of U left whole: its equations and the equations it follows
    rewired = set()  # kept clusters outside U whose children change: first, U's parents
    # A dropped cluster's links are not counted as waste: each matches an
    # entry of a child's segment, and its children are dropped with it.
    waste = kept.waste
    for c in gone:
        s = k_start[c]
        a, b = k_pool[s], k_pool[s + 1]
        members, follow = k_pool[s + 2:s + 2 + a], k_pool[s + 2 + a:s + 2 + a + b]
        waste += 2 + a + b
        rewired.update(map(k_cluster.__getitem__, follow))
        if c == gone[0] or [k_match[u] for u in members] != [match[u] for u in members]:
            opened += members
        else:
            whole.append((members, follow))
    grow = array("i", [-1]) * (n - old_n)
    new_match, owner = k_match + grow, kept.owner + grow
    for u in opened:
        new_match[u] = match[u]
        owner[match[u]] = u

    # Per node: its equation, and the equations it follows, which
    # ``parents`` gives as nodes; those outside U are listed in ``above``.
    # With nothing kept, every equation is its own node.
    equations = opened + [u for members, _ in whole for u in members]
    follows = [tuple([owner[x] for x in rows[u] if x != v]) for u, v in zip(opened, map(match.__getitem__, opened))]
    parents = follows
    above: dict[int, list[int]] = {}
    if old_n:
        node = dict(zip(equations, range(len(equations))))
        for members, follow in whole:
            follows.append(tuple([owner[k_match[p]] for p in follow]))
            follows += [()] * (len(members) - 1)
        parents = [tuple([node.get(p, -1) for p in ps]) for ps in follows]
        for q in [q for q, ps in enumerate(parents) if -1 in ps]:
            above[q] = [p for p in follows[q] if p not in node]
            parents[q] = tuple([p for p in parents[q] if p != -1])
        q = len(opened)
        for members, _ in whole:
            size = len(members)
            if size > 1:  # each member follows the one before it, the first the last
                parents[q] += (q + size - 1,)
                parents[q + 1:q + size] = [(p,) for p in range(q, q + size - 1)]
            q += size

    # Tarjan finishes a component only after every component it reaches, so
    # over parent lists each component's parents are already keyed.  Each
    # new cluster's segment is written as its component is finished, and
    # its links to its parents' clusters are chained, as in
    # graphs.topological_prefix.  A kept parent's new children are ``born``.
    comps = strongly_connected_components(parents)
    comp_of = [-1] * len(parents)
    keys: list[int] = []
    segment: list[int] = []  # per component, where its segment will start in the pool
    flat: list[int] = []
    last = [-1] * len(comps)
    linked = len(kept.child)  # new links are numbered on from the kept ones
    before: list[int] = []
    child: list[int] = []
    born: dict[int, set[int]] = {}
    base = len(k_pool)
    for ci, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = ci
        top = -1
        head = equations[comp[0]]
        for q in comp:
            for p in parents[q]:
                pc = comp_of[p]
                k = last[pc]
                if k != -1 and child[k - linked] == head or pc == ci:
                    continue  # linked already, or inside
                before.append(k)
                last[pc] = linked + len(child)
                child.append(head)
                if keys[pc] > top:
                    top = keys[pc]
        segment.append(base + len(flat))
        if len(comp) == 1:
            low = match[head]
            flat += 1, len(follows[comp[0]]), head, *follows[comp[0]]
        else:
            inner = [equations[q] for q in comp]
            low = min([match[u] for u in inner])
            outer = {p for q in comp for p in follows[q]}.difference(inner)
            flat += len(inner), len(outer), *inner, *outer
        if above:
            for p in [p for q in comp for p in above.get(q, ())]:
                born.setdefault(k_cluster[p], set()).add(head)
                if k_key[k_cluster[p]] > top:
                    top = k_key[k_cluster[p]]
        keys.append(((top >> _SHIFT) + 1) << _SHIFT | low)

    # Canonical positions: the kept clusters outside U keep their keys and
    # so their relative order; each new cluster goes where its key falls.
    # A kept cluster whose children change is rewired: its links are
    # chained anew.
    fresh = sorted(range(len(comps)), key=keys.__getitem__)
    fresh_keys = list(map(keys.__getitem__, fresh))
    placed_at = [0] * len(fresh)  # the canonical position of each new cluster
    gone_set = set(gone)
    rewired.update(born)
    rewired -= gone_set
    ats = [bisect_left(k_key, key) for key in fresh_keys]
    old_k = len(k_key)
    newpos = [0] * old_k
    k_last = kept.last
    start, key, heads = array("i"), array("q"), array("i")
    placed = prev = j = 0
    cuts = [*{*gone, *rewired, *ats, old_k}]
    cuts.sort()
    for cut in cuts:
        if prev < cut:
            newpos[prev:cut] = range(placed, placed + cut - prev)
            start += k_start[prev:cut]
            key += k_key[prev:cut]
            heads += k_last[prev:cut]
            placed += cut - prev
        end = bisect_right(ats, cut, j)
        if j < end:
            placed_at[j:end] = range(placed, placed + end - j)
            start.extend(map(segment.__getitem__, fresh[j:end]))
            key.extend(fresh_keys[j:end])
            heads.extend(map(last.__getitem__, fresh[j:end]))
            placed += end - j
            j = end
        prev = cut
        if cut in rewired:
            kids = kept.children(cut)
            waste += len(kids)
            k = -1
            for u in {*[u for u in kids if k_cluster[u] not in gone_set], *born.get(cut, ())}:
                before.append(k)
                k = linked + len(child)
                child.append(u)
            newpos[cut] = placed
            start.append(k_start[cut])
            key.append(k_key[cut])
            heads.append(k)
            placed += 1
            prev = cut + 1
        elif cut in gone_set:
            prev = cut + 1
    position = [0] * len(comps)
    for ci, here in zip(fresh, placed_at):
        position[ci] = here
    cluster = array("i", map(newpos.__getitem__, k_cluster)) + grow
    for u, ci in zip(equations, comp_of):
        cluster[u] = position[ci]
    pool = k_pool + array("i", flat)
    links = kept.before + array("i", before), kept.child + array("i", child)
    return _Analysis(new_match, owner, cluster, key, start, pool, heads, *links, waste)


def ordering_to_dot(ordering: CausalOrdering) -> str:
    """Render the variable-level causal graph as DOT text.

    Feedback clusters (degree above one) become boxed same-rank subgraphs
    annotated with their degree; no edges are drawn inside them.
    """
    matrix = ordering.matrix
    lines = []
    box = 0
    for cluster in ordering.clusters:
        names = [dot_id(matrix.variable_names[v]) for v in sorted(cluster.variables)]
        if cluster.degree > 1:
            lines.append(f"  subgraph cluster_{box} {{")
            lines.append(f'    label="degree={cluster.degree}";')
            lines.append("    rank=same;")
            lines.extend(f"    {name};" for name in names)
            lines.append("  }")
            box += 1
        else:
            lines.extend(f"  {name};" for name in names)
    return _digraph("causal_ordering", lines, matrix.variable_names, ordering.variable_edges)
