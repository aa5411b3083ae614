import math
import pickle
import random
from collections import Counter
from itertools import product

import pytest

from causalstruct import (
    Bbn,
    BbnNode,
    CyclicStructureError,
    NotSelfContainedError,
    StructuralChange,
    StructureMatrix,
    affected_variables,
    apply_change,
    bbn_to_sem,
    causal_ordering,
    check_system,
    compare_marginals,
    intervene_bbn,
    joint_probability,
    marginals,
    sem_structure,
    triangularize,
    validate,
)

from generators import (
    binary_chain_network,
    independent_binary_network,
    random_bbn,
    random_distribution,
    random_self_contained_system,
    random_square_matrix,
)


def names(matrix, variables):
    return {matrix.variable_names[v] for v in variables}


EDITS = [("replace_equation", "e2"), ("add_exogenous_variable", "b")]


class TestApplyChange:
    def test_belt_policy_reproduces_extended_model(self, model3, model5):
        with_belt = apply_change(
            model3,
            StructuralChange(kind="add_exogenous_variable", target="b", vars=("b",)),
        )
        final = apply_change(
            with_belt,
            StructuralChange(kind="replace_equation", target="e3", vars=("m", "a", "b")),
        )
        assert final == model5

    def test_noop_replacement(self, model3):
        unchanged = apply_change(
            model3, StructuralChange(kind="replace_equation", target="e1", vars=("d",))
        )
        assert unchanged == model3

    def test_detaching_a_mechanism_drops_the_edge(self, model3):
        edited = apply_change(
            model3, StructuralChange(kind="replace_equation", target="e3", vars=("m",))
        )
        ordering = causal_ordering(edited)
        edges = {
            (edited.variable_names[u], edited.variable_names[v])
            for u, v in ordering.variable_edges
        }
        assert edges == {("d", "a")}

    def test_breaking_change_rejected_with_witness(self, model3):
        # dropping m from e3 leaves m in no equation at all
        with pytest.raises(NotSelfContainedError) as info:
            apply_change(
                model3,
                StructuralChange(kind="replace_equation", target="e3", vars=("a",)),
            )
        report = info.value.report
        assert report is not None
        assert not report.self_contained
        assert names(model3, report.unused_variables) == {"m"}

    def test_bbn_change_not_applicable(self):
        # network-side changes are intervene_bbn's; no change kind names them
        with pytest.raises(ValueError, match="unknown change kind 'set_bbn_node'"):
            StructuralChange("set_bbn_node", "m", ("m",))

    def test_existing_variable_cannot_be_added(self, model3):
        with pytest.raises(ValueError, match="already exists"):
            apply_change(
                model3,
                StructuralChange(kind="add_exogenous_variable", target="m", vars=("m",)),
            )

    @pytest.mark.parametrize("kind, target", EDITS)
    def test_unknown_variable_in_the_row(self, model3, kind, target):
        with pytest.raises(ValueError, match="unknown variable 'q' in new row"):
            apply_change(model3, StructuralChange(kind, target, ("d", "q")))

    @pytest.mark.parametrize("kind, target", EDITS)
    def test_empty_row(self, model3, kind, target):
        with pytest.raises(ValueError, match="mentions no variables"):
            apply_change(model3, StructuralChange(kind, target, ()))

    def test_added_variable_needs_a_name(self, model3):
        with pytest.raises(ValueError, match="^variable names must be non-empty$"):
            apply_change(model3, StructuralChange("add_exogenous_variable", "", ("d",)))

    def test_unknown_equation(self, model3):
        with pytest.raises(KeyError, match="unknown equation 'e9'"):
            apply_change(model3, StructuralChange("replace_equation", "e9", ("d",)))

    def test_added_equation_takes_the_first_free_label(self):
        # e3 is taken, so the first addition is labelled e4 and the next e5.
        matrix = StructureMatrix.from_names(["x", "y"], [("e3", ["x"]), ("e2", ["y"])])
        for name, label in (("z", "e4"), ("w", "e5")):
            matrix = apply_change(matrix, StructuralChange("add_exogenous_variable", name, (name,)))
            assert matrix.equation_labels[-1] == label
        assert matrix.equation_labels == ("e3", "e2", "e4", "e5")

    def test_edits_equal_the_system_built_by_hand(self):
        """Random edits, some chained two or three deep, each seeded from the
        report the edit before kept, decide as a check from scratch of the same
        system built from names: equal matrix, report and refusal message, and
        a kept matching that is a maximum matching of the edited rows.  Edits of
        a system that is not self-contained take the full check.  Each
        self-contained step is ordered before it is edited, so the next
        step's ordering reorders the kept analysis below the edit; it equals
        the ordering from scratch in all four fields, and so do its
        triangularization and every equation's affected variables."""
        seen = Counter()
        for seed in (1301, 7, 99):
            rng = random.Random(seed)
            for _ in range(600):
                fallback = rng.random() < 0.2
                matrix = (random_square_matrix if fallback else random_self_contained_system)(rng, max_n=8)
                for depth in range(rng.randint(1, 3)):
                    if depth:
                        assert "_report" in vars(matrix)  # decided by the edit before
                    change, expected = edit_by_hand(rng, matrix)
                    seen[change.kind, not check_system(matrix).self_contained, depth] += 1
                    if check_system(matrix).self_contained:
                        causal_ordering(matrix)
                    matrix = decide_like_scratch(matrix, change, expected)
                    if matrix is not None and "_edit_of" in vars(matrix):
                        seen["reordered"] += 1
                        assert_structure_equals_scratch(matrix, expected)
                    if matrix is None:
                        seen["refused"] += 1
                        break
        # Both kinds of edit, seeded and checked from scratch, chained three
        # deep, refused, and reordered: 8 kinds of step, the refusals and
        # the reorderings, each seen often.
        assert len(seen) == 10 and min(seen.values()) > 50

    def test_a_seeded_report_may_keep_another_maximum_matching(self):
        """Both equations of the edited system can take either variable.  The
        seeded search keeps y for e1; a check from scratch gives it x.  The
        reports are equal all the same, and the matching takes no part in
        ``repr`` or pickling: a pickled report matches its matrix afresh."""
        matrix = StructureMatrix.from_names(["x", "y"], [("e1", ["y"]), ("e2", ["x", "y"])])
        edited = apply_change(matrix, StructuralChange("replace_equation", "e1", ("x", "y")))
        fresh = StructureMatrix.from_names(["x", "y"], [("e1", ["x", "y"]), ("e2", ["x", "y"])])
        seeded, scratch = check_system(edited), check_system(fresh)
        assert (seeded.matching, scratch.matching) == ((1, 0), (0, 1))
        assert seeded == scratch and hash(seeded) == hash(scratch) and repr(seeded) == repr(scratch)
        assert pickle.dumps(seeded) == pickle.dumps(scratch)
        assert pickle.loads(pickle.dumps(seeded)).matching == (0, 1)


def assert_structure_equals_scratch(edited, expected):
    """The ordering of ``edited``, read off its reordered analysis, equals
    that of ``expected`` built from scratch; so does each equation's
    affected variables.  The triangularization, or the equations it cannot
    place, read off either kept analysis equals the one the precedence path
    gives for a copy of ``expected`` that was never ordered."""
    never_ordered = StructureMatrix(expected.variable_names, expected.equation_labels, expected.rows)
    ordering, scratch = causal_ordering(edited), causal_ordering(expected)
    assert "_edit_of" not in vars(expected)
    assert ordering.matrix == scratch.matrix
    assert ordering.clusters == scratch.clusters
    assert ordering.cluster_edges == scratch.cluster_edges
    assert ordering.variable_edges == scratch.variable_edges
    results = []
    for matrix in (edited, expected, never_ordered):
        try:
            results.append(triangularize(matrix))
        except CyclicStructureError as exc:
            results.append(exc.remaining_equations)
    assert "_analysis" not in vars(never_ordered)
    assert results[0] == results[1] == results[2]
    for e in range(edited.n):
        assert affected_variables(ordering, e) == affected_variables(scratch, e)


def edit_by_hand(rng, matrix):
    """A random edit of ``matrix``, and the system it gives built from names."""
    variables = list(matrix.variable_names)
    equations = [
        (label, [variables[v] for v in row]) for label, row in zip(matrix.equation_labels, matrix.rows)
    ]
    if rng.random() < 0.5:
        e = rng.randrange(matrix.n)
        kind, target = "replace_equation", matrix.equation_labels[e]
    else:
        e = matrix.n
        kind, target = "add_exogenous_variable", f"new{e}"
        variables.append(target)
        equations.append((f"e{e + 1}", []))
    row = rng.sample(variables, rng.randint(1, min(3, len(variables))))
    equations[e] = (equations[e][0], row)
    return StructuralChange(kind, target, tuple(row)), StructureMatrix.from_names(variables, equations)


def decide_like_scratch(matrix, change, expected):
    """Apply ``change`` and hold it to ``check_system`` of the fresh ``expected``;
    the edited matrix, or None when the edit is refused."""
    report = check_system(expected)
    if report.self_contained:
        edited = apply_change(matrix, change)
        kept = check_system(edited)
        assert edited == expected and kept == report
        assert check_system(pickle.loads(pickle.dumps(edited))) == report
    else:
        with pytest.raises(NotSelfContainedError) as caught:
            apply_change(matrix, change)
        edited, kept = None, caught.value.report
        assert kept == report
        assert str(caught.value) == "change leaves the system " + report.describe()
    # a matching of the edited rows, with as many unmatched as a maximum one
    match = kept.matching
    taken = [v for v in match if v != -1]
    assert len(match) == expected.n and len(set(taken)) == len(taken)
    assert all(v in row for v, row in zip(match, expected.rows) if v != -1)
    assert match.count(-1) == report.matching.count(-1)
    if match.count(-1) == 1:
        assert match.index(-1) in kept.violation.equations
    return edited


class TestAffectedVariables:
    def test_last_mechanism_only_touches_its_own_variable(self, model3):
        ordering = causal_ordering(model3)
        affected = affected_variables(ordering, model3.equation_index("e3"))
        assert names(model3, affected) == {"m"}

    def test_exogenous_mechanism_cascades(self, model3):
        ordering = causal_ordering(model3)
        affected = affected_variables(ordering, model3.equation_index("e1"))
        assert names(model3, affected) == {"d", "a", "m"}

    def test_belt_equation_touches_belt_and_mortality(self, model5):
        ordering = causal_ordering(model5)
        affected = affected_variables(ordering, model5.equation_index("e4"))
        assert names(model5, affected) == {"b", "m"}

    def test_added_variable_needs_a_name(self, model3):
        with pytest.raises(ValueError, match="^variable names must be non-empty$"):
            apply_change(model3, StructuralChange("add_exogenous_variable", "", ("d",)))

    def test_unknown_equation(self, model3):
        ordering = causal_ordering(model3)
        for e in (-1, model3.n, 17):
            with pytest.raises(KeyError, match=f"equation index {e} not in this system"):
                affected_variables(ordering, e)


class TestInterveneBbn:
    def test_forcing_x_true(self, xy_bbn):
        after = intervene_bbn(xy_bbn, 0, (1.0, 0.0))
        assert marginals(after)[1][0] == pytest.approx(0.7, abs=1e-12)
        assert after.nodes[0].parents == ()
        assert after.nodes[0].cpt == ((1.0, 0.0),)

    def test_intervening_on_effect_leaves_cause(self, xy_bbn):
        after = intervene_bbn(xy_bbn, 1, (1.0, 0.0))
        assert marginals(after)[0] == pytest.approx([0.4, 0.6], abs=1e-12)

    def test_imposing_current_marginal_on_root_is_a_noop(self, xy_bbn):
        after = intervene_bbn(xy_bbn, 0, (0.4, 0.6))
        for a in product(*map(range, xy_bbn.outcome_counts())):
            assert joint_probability(after, a) == pytest.approx(
                joint_probability(xy_bbn, a), abs=1e-12
            )

    def test_idempotent(self, xy_bbn):
        once = intervene_bbn(xy_bbn, 0, (0.9, 0.1))
        twice = intervene_bbn(once, 0, (0.9, 0.1))
        assert once == twice

    @pytest.mark.parametrize("node", [-1, 2])
    def test_node_out_of_range(self, xy_bbn, node):
        with pytest.raises(IndexError, match=f"node index {node} out of range"):
            intervene_bbn(xy_bbn, node, (1.0, 0.0))

    def test_dimension_mismatch(self, xy_bbn):
        with pytest.raises(ValueError, match="entries"):
            intervene_bbn(xy_bbn, 0, (0.5, 0.3, 0.2))

    def test_unnormalized_rejected(self, xy_bbn):
        with pytest.raises(ValueError, match="sums to"):
            intervene_bbn(xy_bbn, 0, (0.6, 0.6))

    @pytest.mark.parametrize(
        "dist, accepted",
        [
            ((1.0, 0.0), True),
            ((0.4, 0.6), True),
            ((-0.0, 1.0), True),
            ((0.5, 0.5 + 5e-10), True),
            ((0.5, 0.5 - 5e-10), True),
            ((0.5, 0.5 + 2e-9), False),
            ((0.5, 0.5 - 2e-9), False),
            ((1.5, -0.5), False),
            ((math.nan, 1.0), False),
            ((1.0,), False),
            ((0.5, 0.3, 0.2), False),
            ((), False),
            ((1e308, 1e308), False),
        ],
    )
    def test_accepts_exactly_what_validate_passes(self, xy_bbn, dist, accepted):
        x = xy_bbn.nodes[0]
        report = validate(Bbn((BbnNode(x.name, x.outcomes, (), (dist,)),)))
        assert report.valid == accepted
        if accepted:
            assert intervene_bbn(xy_bbn, 0, dist).nodes[0].cpt == (dist,)
        else:
            with pytest.raises(ValueError) as info:
                intervene_bbn(xy_bbn, 0, dist)
            assert repr(dist) in str(info.value)
            assert report.issues[0].detail in str(info.value)


class TestCompareMarginals:
    def test_intervening_on_effect_leaves_cause_untouched(self, xy_bbn):
        after = intervene_bbn(xy_bbn, 1, (1.0, 0.0))
        deltas = compare_marginals(xy_bbn, after)
        assert deltas["x"] == 0.0

    def test_unaffected_gap_is_exact_where_enumeration_rounds(self, xy_bbn):
        # Enumerating both joints puts x's gap at 1.1e-16 here.
        after = intervene_bbn(xy_bbn, 1, (0.9, 0.1))
        assert compare_marginals(xy_bbn, after) == {"x": 0.0, "y": pytest.approx(0.5)}

    @pytest.mark.parametrize("seed", range(5))
    def test_a_reordered_copy_changes_no_mechanism(self, seed):
        bbn = random_bbn(random.Random(seed))
        order = list(range(bbn.n))[::-1]
        at = {old: new for new, old in enumerate(order)}
        copy = Bbn(
            tuple(
                BbnNode(n.name, n.outcomes, tuple(at[p] for p in n.parents), n.cpt)
                for n in (bbn.nodes[i] for i in order)
            )
        )
        assert set(compare_marginals(bbn, copy).values()) == {0.0}

    def test_identical_networks(self, xy_bbn):
        deltas = compare_marginals(xy_bbn, xy_bbn)
        assert deltas == {"x": 0.0, "y": 0.0}

    def test_forcing_x_moves_y_by_point_three(self, xy_bbn):
        after = intervene_bbn(xy_bbn, 0, (1.0, 0.0))
        deltas = compare_marginals(xy_bbn, after)
        assert deltas["y"] == pytest.approx(0.3, abs=1e-12)

    def test_refused_past_the_enumeration_bound(self):
        # The last node's ancestors span 2**21 configurations before the cut.
        before = binary_chain_network(21)
        with pytest.raises(ValueError, match="enumeration bound"):
            compare_marginals(before, intervene_bbn(before, 20, (1.0, 0.0)))

    def test_only_the_cut_coin_moves(self):
        before = independent_binary_network(18)
        deltas = compare_marginals(before, intervene_bbn(before, 17, (1.0, 0.0)))
        assert deltas == {**{f"c{i}": 0.0 for i in range(17)}, "c17": 0.5}

    def test_the_bound_applies_to_the_pruned_enumeration(self):
        # 2**40 joint configurations, of which the cut coin's ancestors span 2.
        before = independent_binary_network(40)
        deltas = compare_marginals(before, intervene_bbn(before, 0, (1.0, 0.0)))
        assert deltas == {"c0": 0.5, **{f"c{i}": 0.0 for i in range(1, 40)}}

    def test_mismatched_variable_sets(self, xy_bbn):
        smaller = intervene_bbn(xy_bbn, 0, (1.0, 0.0))
        renamed = type(smaller)(
            (
                smaller.nodes[0],
                type(smaller.nodes[1])(
                    name="z",
                    outcomes=smaller.nodes[1].outcomes,
                    parents=smaller.nodes[1].parents,
                    cpt=smaller.nodes[1].cpt,
                ),
            )
        )
        with pytest.raises(ValueError, match="different variable sets"):
            compare_marginals(xy_bbn, renamed)

    def test_mismatched_outcome_labels(self, xy_bbn):
        x, y = xy_bbn.nodes
        relabeled = Bbn((BbnNode(x.name, ("yes", "no"), x.parents, x.cpt), y))
        with pytest.raises(ValueError, match="outcome space of 'x' differs"):
            compare_marginals(xy_bbn, relabeled)

    @pytest.mark.parametrize("seed", range(15))
    def test_non_descendants_never_move(self, seed):
        rng = random.Random(seed)
        bbn = random_bbn(rng)
        node = rng.randrange(bbn.n)
        dist = random_distribution(rng, bbn.nodes[node].outcome_count)
        after = intervene_bbn(bbn, node, dist)
        deltas = compare_marginals(bbn, after)

        descendants = {node}
        changed = True
        while changed:
            changed = False
            for child, candidate in enumerate(bbn.nodes):
                if child not in descendants and descendants & set(candidate.parents):
                    descendants.add(child)
                    changed = True
        for i, candidate in enumerate(bbn.nodes):
            if i not in descendants:
                assert deltas[candidate.name] == 0.0


class TestChangesAndOrderings:
    @pytest.mark.parametrize("seed", range(20))
    def test_affected_variables_bound_marginal_changes(self, seed):
        # The equation-side affected set must cover every variable whose
        # marginal the paired network-side intervention can move.
        rng = random.Random(seed)
        bbn = random_bbn(rng)
        node = rng.randrange(bbn.n)
        dist = random_distribution(rng, bbn.nodes[node].outcome_count)

        matrix = sem_structure(bbn_to_sem(bbn))
        ordering = causal_ordering(matrix)
        affected = affected_variables(ordering, node)  # equation i targets variable i

        replaced = apply_change(
            matrix,
            StructuralChange(
                kind="replace_equation",
                target=matrix.equation_labels[node],
                vars=(matrix.variable_names[node],),
            ),
        )
        assert check_system(replaced).self_contained

        deltas = compare_marginals(bbn, intervene_bbn(bbn, node, dist))
        for i in range(bbn.n):
            if i not in affected:
                assert deltas[bbn.nodes[i].name] <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_clusters_unreachable_from_change_survive(self, seed):
        rng = random.Random(seed * 7919)
        matrix = None
        while matrix is None or matrix.n < 2:
            matrix = random_self_contained_system(rng, max_n=7, extra_prob=0.3)
        before = causal_ordering(matrix)

        e = rng.randrange(matrix.n)
        new_row = {rng.randrange(matrix.n)} | {
            v for v in range(matrix.n) if rng.random() < 0.3
        }
        try:
            edited = apply_change(
                matrix,
                StructuralChange(
                    kind="replace_equation",
                    target=matrix.equation_labels[e],
                    vars=tuple(matrix.variable_names[v] for v in new_row),
                ),
            )
        except NotSelfContainedError:
            return
        after = causal_ordering(edited)

        start = next(ci for ci, c in enumerate(before.clusters) if e in c.equations)
        reach = {start}
        frontier = [start]
        successors = {}
        for a, b in before.cluster_edges:
            successors.setdefault(a, []).append(b)
        while frontier:
            x = frontier.pop()
            for y in successors.get(x, ()):
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)

        survivors = {
            (c.equations, c.variables, c.order)
            for i, c in enumerate(before.clusters)
            if i not in reach
        }
        assert survivors <= {
            (c.equations, c.variables, c.order) for c in after.clusters
        }
