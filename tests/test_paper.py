"""The paper's two halves held against each other.

A network reads causally when its arcs are the causal ordering of its
mechanisms, and an intervention replaces one mechanism.  ``intervene_bbn``
and ``compare_marginals`` act on the network; ``apply_change``,
``causal_ordering`` and ``affected_variables`` act on its equations.  Each
property below ties the two together, with its proof in its docstring, and
each runs on chains of edits: every structure after the first is an edit
of an ordered one, so its ordering is reordered from the kept analysis
below the edit instead of computed from scratch.
"""

import random

from hypothesis import given, settings, strategies as st

from causalstruct import (
    NotSelfContainedError,
    StructuralChange,
    affected_variables,
    apply_change,
    bbn_to_sem,
    causal_ordering,
    compare_marginals,
    intervene_bbn,
    sem_structure,
)

from generators import random_bbn, random_distribution, random_self_contained_system

SEEDS = st.integers(0, 2**32 - 1)
STEPS = st.integers(1, 4)


def intervention(rng, bbn):
    """A random node of ``bbn``, a distribution for it, and the edit of its equation."""
    node = rng.randrange(bbn.n)
    name = bbn.nodes[node].name
    change = StructuralChange("replace_equation", f"f_{name}", (name,))
    return node, random_distribution(rng, bbn.nodes[node].outcome_count), change


@given(SEEDS, STEPS)
@settings(max_examples=100, deadline=None)
def test_structure_commutes_with_intervention(seed, steps):
    """Cutting node k in the network and replacing k's equation by the row
    {k} give the same structure.

    Proof: equation i of ``bbn_to_sem`` involves node i and its parents, so
    ``sem_structure`` gives row i = {i} plus i's parents.  ``intervene_bbn``
    leaves every node but k as it was and gives k no parents, so the
    intervened network's row k is {k} and every other row is unchanged:
    exactly the matrix ``apply_change`` builds.  Both sides are then the
    structure of one network, and so are their orderings.
    """
    rng = random.Random(seed)
    bbn = random_bbn(rng)
    structure = sem_structure(bbn_to_sem(bbn))
    for _ in range(steps):
        causal_ordering(structure)
        node, dist, change = intervention(rng, bbn)
        bbn = intervene_bbn(bbn, node, dist)
        structure = apply_change(structure, change)
        scratch = sem_structure(bbn_to_sem(bbn))
        assert structure == scratch
        assert "_edit_of" in vars(structure)
        assert causal_ordering(structure) == causal_ordering(scratch)


@given(SEEDS, STEPS)
@settings(max_examples=100, deadline=None)
def test_marginals_move_only_inside_the_affected_variables(seed, steps):
    """Every variable whose marginal an intervention on node k moves lies in
    ``affected_variables`` of k's equation.

    Proof: under the matching of each equation to its own node, equation i
    follows exactly the equations of i's parents, so every cluster is one
    equation and the cluster edges are the network's arcs
    (``roundtrip_check``).  The affected variables are therefore k and its
    descendants.  A variable outside them has neither k nor a descendant of
    k among itself and its ancestors, so no mechanism it depends on changed,
    and ``compare_marginals`` gives it a gap of exactly 0.0.  The converse
    does not hold: a distribution equal to k's marginal moves nothing.
    """
    rng = random.Random(seed)
    bbn = random_bbn(rng)
    structure = sem_structure(bbn_to_sem(bbn))
    for _ in range(steps):
        ordering = causal_ordering(structure)
        node, dist, change = intervention(rng, bbn)
        after = intervene_bbn(bbn, node, dist)
        moved = {name for name, gap in compare_marginals(bbn, after).items() if gap != 0.0}
        assert moved <= {bbn.nodes[v].name for v in affected_variables(ordering, node)}
        bbn, structure = after, apply_change(structure, change)


def exogenizes(matrix, e, v):
    """Whether replacing equation e by the row {v} leaves ``matrix`` self-contained."""
    change = StructuralChange("replace_equation", matrix.equation_labels[e], (matrix.variable_names[v],))
    try:
        apply_change(matrix, change)
    except NotSelfContainedError:
        return False
    return True


def random_accepted_edit(rng, matrix):
    """An edit of ``matrix`` that leaves it self-contained: a random row for
    a random equation, or a new variable, tried a few times; else the
    exogenization of one equation's own cluster, which always holds."""
    variables = matrix.variable_names
    for _ in range(20):
        row = tuple(rng.sample(variables, rng.randint(1, min(3, len(variables)))))
        if rng.random() < 0.25:
            change = StructuralChange("add_exogenous_variable", f"new{matrix.n}", (f"new{matrix.n}", *row))
        else:
            change = StructuralChange("replace_equation", rng.choice(matrix.equation_labels), row)
        try:
            return apply_change(matrix, change)
        except NotSelfContainedError:
            continue
    e = rng.randrange(matrix.n)
    v = min(next(c for c in causal_ordering(matrix).clusters if e in c.equations).variables)
    return apply_change(matrix, StructuralChange("replace_equation", matrix.equation_labels[e], (variables[v],)))


@given(SEEDS, STEPS)
@settings(max_examples=60, deadline=None)
def test_exogenizing_keeps_a_system_self_contained_exactly_when_the_variable_is_affected(seed, steps):
    """For a self-contained matrix, replacing equation e by the row {v}
    leaves it self-contained exactly when v is in ``affected_variables`` of e.

    Proof: fix a perfect matching M, and let g be the equation matched to
    v.  The new row e can take only v, so the edited system is
    self-contained exactly when the other rows match the other columns.  If
    g is e, M does that.  Otherwise, dropping row e and column v leaves M
    matching every row but g, and every column but M(e); a perfect matching
    exists exactly when an alternating path leads from g to M(e).  Such a
    path steps from a row to a column it holds and on to the row M matches
    to that column, which is a precedence parent of the row; it reaches
    M(e) exactly when e is a precedence ancestor of g.  So the edit keeps
    the system self-contained exactly when g is e or lies downstream of e,
    in e's cluster or below it, which is when g's variable v is affected.
    """
    rng = random.Random(seed)
    matrix = random_self_contained_system(rng, max_n=7)
    for step in range(steps):
        ordering = causal_ordering(matrix)
        if step:
            assert "_edit_of" in vars(matrix)
        for e in range(matrix.n):
            affected = affected_variables(ordering, e)
            for v in range(matrix.n):
                assert exogenizes(matrix, e, v) == (v in affected)
        matrix = random_accepted_edit(rng, matrix)
