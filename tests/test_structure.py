import copy
import pickle
import random
import sys
import threading

import pytest

from causalstruct import (
    FormatError,
    NotSelfContainedError,
    StructuralChange,
    StructureMatrix,
    apply_change,
    causal_ordering,
    check_system,
    is_triangularizable,
    load_system,
    system_from_dict,
    triangularize,
)
from causalstruct import matching, ordering
from causalstruct.graphs import strongly_connected_components, topological_order
from causalstruct.matching import maximum_matching

from conftest import DATA
from generators import chain_system, permute, random_self_contained_system, random_square_matrix, subsystem
from oracles import brute_is_self_contained, brute_self_contained_subsets, surplus_core


def names(matrix, variables):
    return {matrix.variable_names[v] for v in variables}


def subset_is_self_contained(matrix, subset):
    """``check_system``'s verdict on the subset's own system."""
    sub = subsystem(matrix, subset)
    return sub is not None and check_system(sub).self_contained


class TestIsSelfContained:
    """Subset self-containment, decided by ``check_system`` on the subset's own system."""

    def test_full_chain_system(self, model3):
        assert subset_is_self_contained(model3, {0, 1, 2})

    def test_single_equation_with_two_variables(self, model3):
        assert not subset_is_self_contained(model3, {1})

    def test_single_exogenous_equation(self, model3):
        assert subset_is_self_contained(model3, {0})

    def test_matches_brute_force_on_paper_models(self, model3, model4, model5, feedback2):
        for matrix in (model3, model4, model5, feedback2):
            for mask in range(1, 1 << matrix.n):
                subset = {e for e in range(matrix.n) if mask >> e & 1}
                assert subset_is_self_contained(matrix, subset) == brute_is_self_contained(
                    matrix, subset
                ), (matrix.variable_names, subset)

    def test_matches_brute_force_on_random_systems(self):
        rng = random.Random(1005)
        for _ in range(12):
            matrix = random_square_matrix(rng, max_n=8)
            for mask in range(1, 1 << matrix.n):
                subset = {e for e in range(matrix.n) if mask >> e & 1}
                assert subset_is_self_contained(matrix, subset) == brute_is_self_contained(
                    matrix, subset
                )

    def test_matches_brute_force_at_n12(self):
        matrix = random_self_contained_system(random.Random(77), max_n=12, min_n=12)
        for mask in range(1, 1 << 12):
            subset = {e for e in range(12) if mask >> e & 1}
            assert subset_is_self_contained(matrix, subset) == brute_is_self_contained(
                matrix, subset
            )

    def test_invariant_under_simultaneous_permutation(self):
        rng = random.Random(42)
        for _ in range(20):
            matrix = random_square_matrix(rng, max_n=6)
            row_perm = list(range(matrix.n))
            col_perm = list(range(matrix.n))
            rng.shuffle(row_perm)
            rng.shuffle(col_perm)
            permuted = permute(matrix, row_perm, col_perm)
            for mask in range(1, 1 << matrix.n):
                subset = {e for e in range(matrix.n) if mask >> e & 1}
                # new row i holds old row row_perm[i]
                mapped = {i for i, old in enumerate(row_perm) if old in subset}
                assert subset_is_self_contained(matrix, subset) == subset_is_self_contained(
                    permuted, mapped
                )


def random_reports(rng, count=600):
    """``check_system`` reports of random square systems, n <= 8, of varied fill."""
    for _ in range(count):
        matrix = random_square_matrix(rng, max_n=8, fill=rng.uniform(0.1, 0.5))
        yield matrix, check_system(matrix)


class TestCheckSystem:
    def test_extended_model_is_self_contained(self, model5):
        report = check_system(model5)
        assert report.self_contained
        assert report.violation is None
        assert report.unused_variables == ()
        assert report.describe() == "self-contained"

    def test_unused_variable_witness(self):
        matrix = load_system(DATA / "unused_variable.json")
        report = check_system(matrix)
        assert not report.self_contained
        assert names(matrix, report.unused_variables) == {"y"}
        assert report.violation is not None
        assert report.violation.equations == frozenset({0, 1})
        assert names(matrix, report.violation.variables) == {"x"}

    def test_merged_row_model_still_self_contained(self, model4):
        # brute force over all 7 non-empty subsets agrees
        assert brute_is_self_contained(model4, {0, 1, 2})
        assert check_system(model4).self_contained

    def test_the_matching_visits_each_row_in_ascending_order(self):
        # CPython iterates frozenset({1, 8}) as 8, then 1: the matching must
        # not depend on that, nor on the order a row lists its columns in.
        rows = [frozenset({1, 8}), frozenset({0})]
        rows += [frozenset({v}) for v in range(2, 8)] + [frozenset({1, 8})]
        assert list(rows[0]) == [8, 1]
        matrix = StructureMatrix(
            tuple(f"v{v}" for v in range(9)), tuple(f"e{e}" for e in range(9)), tuple(rows)
        )
        rng = random.Random(121)
        for system in [matrix, *(random_square_matrix(rng, max_n=9) for _ in range(200))]:
            expected = maximum_matching([sorted(row) for row in system.rows])
            assert maximum_matching(system.rows) == expected
            assert maximum_matching([sorted(row, reverse=True) for row in system.rows]) == expected
            assert check_system(system).matching == tuple(expected[0])
        assert maximum_matching([]) == ([], None)
        assert strongly_connected_components([]) == []
        assert topological_order([]) == []

    def test_violating_subset_has_fewer_variables(self):
        rng = random.Random(7)
        seen = 0
        while seen < 10:
            matrix = random_square_matrix(rng, max_n=7)
            report = check_system(matrix)
            if report.self_contained or report.violation is None:
                continue
            seen += 1
            assert len(report.violation.variables) < len(report.violation.equations)
            assert not brute_is_self_contained(matrix, report.violation.equations)

    def test_violator_grows_from_the_first_unmatched_equation(self):
        for matrix, report in random_reports(random.Random(12)):
            if report.self_contained:
                continue
            violation = report.violation
            assert report.matching.index(-1) in violation.equations
            assert violation.variables == frozenset().union(*(matrix.rows[e] for e in violation.equations))
            assert len(violation.equations) == len(violation.variables) + 1

    def test_violator_is_the_surplus_core(self):
        rng = random.Random(13)
        seen = {0: 0, 1: 0, 2: 0}
        for matrix, report in random_reports(rng):
            core = surplus_core(matrix)
            surplus = len(core) - len(frozenset().union(*(matrix.rows[e] for e in core)))
            seen[min(surplus, 2)] += 1
            if report.self_contained:
                assert core == frozenset()
                continue
            violation = report.violation
            if surplus > 1:
                assert violation.equations <= core
                continue
            assert violation.equations == core
            # With one equation left over the violator does not depend on
            # the matching, so renumbering rows and columns only renames it.
            rows = rng.sample(range(matrix.n), matrix.n)
            cols = rng.sample(range(matrix.n), matrix.n)
            moved = check_system(permute(matrix, rows, cols)).violation
            assert {rows[e] for e in moved.equations} == violation.equations
            assert {cols[v] for v in moved.variables} == violation.variables
        assert min(seen.values()) >= 50

    def test_intersection_closure_on_self_contained_systems(self):
        rng = random.Random(99)
        for _ in range(25):
            matrix = random_self_contained_system(rng, max_n=7)
            family = brute_self_contained_subsets(matrix)
            for s1 in family:
                for s2 in family:
                    meet = s1 & s2
                    if meet:
                        assert meet in family


def _keep_first_row(matrix):
    """A no-op edit: the first equation replaced by its own row."""
    row = tuple(matrix.variable_names[v] for v in sorted(matrix.rows[0]))
    return apply_change(matrix, StructuralChange("replace_equation", matrix.equation_labels[0], row))


STRUCTURE_OPERATIONS = {
    "causal_ordering": causal_ordering,
    "triangularize": triangularize,
    "is_triangularizable": is_triangularizable,
    "apply_change": _keep_first_row,
}

NOT_SELF_CONTAINED = {
    "unused-variable": load_system(DATA / "unused_variable.json"),
    # Every variable is used, but e1 and e2 share their one variable x.
    "hall-violator": StructureMatrix.from_names(
        ["x", "y", "z"], [("e1", ["x"]), ("e2", ["x"]), ("e3", ["x", "y", "z"])]
    ),
}


class TestSelfContainmentGate:
    """Each structure operation refuses exactly the systems ``check_system`` refuses."""

    def test_the_refused_systems_differ_in_kind(self):
        unused = check_system(NOT_SELF_CONTAINED["unused-variable"])
        hall = check_system(NOT_SELF_CONTAINED["hall-violator"])
        assert unused.unused_variables and unused.violation is not None
        assert not hall.unused_variables and hall.violation.equations == frozenset({0, 1})

    @pytest.mark.parametrize("operation", sorted(STRUCTURE_OPERATIONS))
    @pytest.mark.parametrize("kind", sorted(NOT_SELF_CONTAINED))
    def test_refused_with_the_check_system_report(self, operation, kind):
        matrix = NOT_SELF_CONTAINED[kind]
        with pytest.raises(NotSelfContainedError) as caught:
            STRUCTURE_OPERATIONS[operation](matrix)
        report = check_system(matrix)
        assert caught.value.report == report
        assert str(caught.value).endswith(report.describe())

    @pytest.mark.parametrize("operation", sorted(STRUCTURE_OPERATIONS))
    def test_self_contained_system_passes(self, operation, model5):
        STRUCTURE_OPERATIONS[operation](model5)


def _small_chain():
    """A fresh three-equation chain, whose verdict no earlier test has kept."""
    return StructureMatrix.from_names(
        ["x", "y", "z"], [("e1", ["x"]), ("e2", ["x", "y"]), ("e3", ["y", "z"])]
    )


class TestKeptVerdict:
    """``check_system`` decides a matrix once; every later gate reads that report."""

    @pytest.fixture
    def matchings(self, monkeypatch):
        """The number of ``maximum_matching`` calls since the last read of it."""
        calls = [0]

        def counted(rows):
            calls[0] += 1
            return maximum_matching(rows)

        monkeypatch.setattr(matching, "maximum_matching", counted)
        monkeypatch.setattr(ordering, "maximum_matching", counted)

        def since():
            count, calls[0] = calls[0], 0
            return count

        return since

    def test_each_operation_matches_only_what_is_not_yet_decided(self, matchings):
        matrix = _small_chain()
        report = check_system(matrix)
        assert matchings() == 1
        assert check_system(matrix) is report
        assert matchings() == 0
        causal_ordering(matrix)
        assert matchings() == 1  # the ordering's own matching; the gate reads the kept report
        triangularize(matrix)
        is_triangularizable(matrix)
        assert matchings() == 0
        edited = apply_change(matrix, StructuralChange("replace_equation", "e3", ("x", "z")))
        assert matchings() == 0  # one augmenting search over the kept matching decides the edit
        assert "_report" in vars(edited)
        causal_ordering(edited)
        assert matchings() == 1
        causal_ordering(_small_chain())
        assert matchings() == 2

    def test_a_kept_report_takes_no_part_in_the_value(self):
        checked, fresh = _small_chain(), _small_chain()
        report = check_system(checked)
        assert checked == fresh and hash(checked) == hash(fresh)
        assert pickle.dumps(checked) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(checked)), copy.copy(checked)):
            assert twin == checked and "_report" not in vars(twin)
        assert check_system(fresh) == report

    def test_first_reads_from_eight_threads_agree(self):
        """Eight threads released together each check one fresh matrix; a short
        switch interval makes their first reads interleave."""
        matrix = chain_system(2000)
        barrier = threading.Barrier(8, timeout=30)
        reports = []

        def read():
            barrier.wait()
            reports.append(check_system(matrix))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(reports) == 8
        expected = check_system(chain_system(2000))
        assert all(report == expected for report in reports)


class TestConstruction:
    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="no variables"):
            StructureMatrix(("x",), ("e1",), (frozenset(),))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            StructureMatrix(("x", "y"), ("e1",), (frozenset({0}),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            StructureMatrix(("x", "x"), ("e1", "e2"), (frozenset({0}), frozenset({1})))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="^equation labels must be non-empty$"):
            StructureMatrix(("x",), ("",), (frozenset({0}),))

    @pytest.mark.parametrize("v", [-1, 1])
    def test_variable_index_out_of_range(self, v):
        with pytest.raises(ValueError, match="index out of range"):
            StructureMatrix(("x",), ("e1",), (frozenset({v}),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((frozenset({0}), frozenset(), frozenset({3})), "equation 'e2' mentions no variables"),
            (
                (frozenset({0}), frozenset({-1}), frozenset()),
                "equation 'e2' references a variable index out of range",
            ),
        ],
        ids=["empty-first", "out-of-range-first"],
    )
    def test_the_first_faulty_equation_in_file_order_is_named(self, rows, message):
        """An empty row and an out-of-range row: whichever comes first is refused."""
        with pytest.raises(ValueError) as info:
            StructureMatrix(("x", "y", "z"), ("e1", "e2", "e3"), rows)
        assert str(info.value) == message

    def test_duplicate_rows_allowed(self, feedback2):
        assert feedback2.rows[0] == feedback2.rows[1]

    def test_unknown_variable_in_row(self):
        with pytest.raises(ValueError, match="unknown variable"):
            StructureMatrix.from_names(["x"], [("e1", ["z"])])


class TestFileFormat:
    def test_round_trip(self, model5):
        doc = {
            "variables": ["m", "a", "d", "b"],
            "equations": [
                {"label": "e1", "vars": ["d"]},
                {"label": "e2", "vars": ["a", "d"]},
                {"label": "e3", "vars": ["m", "a", "b"]},
                {"label": "e4", "vars": ["b"]},
            ],
        }
        assert system_from_dict(doc) == model5

    def test_save_then_load(self, tmp_path):
        matrix = StructureMatrix.from_names(
            ["précis", "ω", "x"], [("équation", ["précis", "ω"]), ("e2", ["ω"]), ("e3", ["x", "ω"])]
        )
        path = tmp_path / "system.json"
        path.write_text(
            '{"variables": ["précis", "\\u03c9", "x"], "equations": ['
            '{"label": "équation", "vars": ["précis", "ω"]}, '
            '{"label": "e2", "vars": ["ω"]}, '
            '{"label": "e3", "vars": ["x", "ω"]}]}\n',
            encoding="utf-8",
        )
        assert load_system(path) == matrix

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            system_from_dict({"variables": ["x"], "equations": [], "extra": 1})

    def test_unknown_equation_key_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            system_from_dict(
                {
                    "variables": ["x"],
                    "equations": [{"label": "e1", "vars": ["x"], "coef": 2}],
                }
            )

    def test_non_list_variables_rejected(self):
        with pytest.raises(FormatError):
            system_from_dict({"variables": "x", "equations": []})

    def test_order_fixes_indices(self, model3):
        assert model3.variable_names == ("m", "a", "d")
        assert model3.equation_labels == ("e1", "e2", "e3")
        assert model3.rows[0] == frozenset({2})
