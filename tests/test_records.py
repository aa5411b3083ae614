"""Every record is an immutable value: built from its fields positionally or
by keyword, each given exactly once, equal and hashed by those fields alone,
never equal to a record of another class, shown as ``Name(field=value,
...)``, and unchanged by a pickle round trip."""

import pickle
import re

import pytest

from causalstruct import (
    Bbn,
    BbnNode,
    CausalOrdering,
    Cluster,
    EquationSubset,
    StructuralChange,
    StructureMatrix,
    SystemReport,
    ThresholdEquation,
    ThresholdEquationSystem,
    Triangularization,
)
from causalstruct.bbn import BbnIssue, BbnReport

NODE = BbnNode("x", ("t", "f"), (), ((0.4, 0.6),))
BBN = Bbn((NODE,))
MATRIX = StructureMatrix(("x",), ("e1",), (frozenset({0}),))
CLUSTER = Cluster(frozenset({0}), frozenset({0}), 0)
EQUATION = ThresholdEquation((), ((0.4, 1.0),))

# Per record, its fields in order with one value each, and one field with
# another value it may take.
RECORDS = [
    (BbnNode, {"name": "x", "outcomes": ("t", "f"), "parents": (), "cpt": ((0.4, 0.6),)}, ("name", "y")),
    (Bbn, {"nodes": (NODE,)}, ("nodes", (BbnNode("y", ("t", "f"), (), ((0.5, 0.5),)),))),
    (BbnIssue, {"kind": "row-sum", "node": 0, "detail": "row 0 sums to 0.9"}, ("node", None)),
    (BbnReport, {"bbn": BBN, "issues": ()}, ("issues", (BbnIssue("cycle", None, "x -> x"),))),
    (
        StructureMatrix,
        {"variable_names": ("x",), "equation_labels": ("e1",), "rows": (frozenset({0}),)},
        ("equation_labels", ("e2",)),
    ),
    (EquationSubset, {"equations": frozenset({0}), "variables": frozenset()}, ("variables", frozenset({0}))),
    (
        SystemReport,
        {"matrix": MATRIX, "unused_variables": (), "violation": None},
        ("violation", EquationSubset(frozenset({0}), frozenset())),
    ),
    (Cluster, {"equations": frozenset({0}), "variables": frozenset({0}), "order": 0}, ("order", 1)),
    (
        CausalOrdering,
        {"matrix": MATRIX, "clusters": (CLUSTER,), "cluster_edges": frozenset(), "variable_edges": frozenset()},
        ("cluster_edges", frozenset({(0, 0)})),
    ),
    (Triangularization, {"row_perm": (0,), "col_perm": (0,)}, ("col_perm", (1,))),
    (
        StructuralChange,
        {"kind": "replace_equation", "target": "e1", "vars": ("x",)},
        ("kind", "add_exogenous_variable"),
    ),
    (ThresholdEquation, {"parents": (), "thresholds": ((0.4, 1.0),)}, ("thresholds", ((0.5, 1.0),))),
    (ThresholdEquationSystem, {"variable_names": ("x",), "equations": (EQUATION,)}, ("variable_names", ("y",))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, change):
    built = cls(*fields.values())
    assert built == cls(**fields)
    assert tuple(getattr(built, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_each_field_is_bound_exactly_once(cls, fields, change):
    """A missing field, an unknown keyword, a field given twice or one
    positional too many is a ``TypeError`` that names the class."""
    values = tuple(fields.values())
    first = next(iter(fields))
    for args, named in [
        (values[:-1], {}),
        (values, {"extra": None}),
        (values, {first: values[0]}),
        ((*values, None), {}),
    ]:
        with pytest.raises(TypeError, match=rf"\b{re.escape(cls.__name__)}\b"):
            cls(*args, **named)


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_value(cls, fields, change):
    record, twin = cls(**fields), cls(**fields)
    assert record is not twin and record == twin and hash(record) == hash(twin)
    name, value = change
    other = cls(**{**fields, name: value})
    assert record != other and not record == other


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_a_record_of_another_class_is_never_equal(cls, fields, change):
    record = cls(**fields)
    lookalike = type(cls.__name__, (cls,), {"__slots__": ()})(**fields)
    assert record != lookalike and lookalike != record
    assert cls.__eq__(record, object()) is NotImplemented


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, change):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_repr_names_each_field(cls, fields, change):
    record = cls(**fields)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
def test_pickle_round_trip(cls, fields, change):
    record = cls(**fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


def test_cached_values_survive_and_stay_out_of_equality():
    bbn = Bbn((NODE,))
    assert bbn._report is bbn._report and bbn._report.valid
    assert bbn == BBN and hash(bbn) == hash(BBN)
    sem = ThresholdEquationSystem(("x",), (EQUATION,))
    assert sem.evaluation_order == (0,) and sem.evaluation_order is sem.evaluation_order
    assert pickle.loads(pickle.dumps(sem)) == sem


def test_a_cluster_has_no_instance_dict():
    assert not hasattr(CLUSTER, "__dict__")
    assert Cluster.__slots__ == ("equations", "variables", "order")
