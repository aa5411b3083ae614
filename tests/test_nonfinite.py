"""Non-finite numbers are refused at every boundary instead of slipping through.

Every comparison with NaN is false, so a range check written as
``p < 0.0 or p > 1.0`` waves NaN through; these tests pin the rejection at
the file parsers, the CLI flag parser, and the library constructors.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from causalstruct import (
    Bbn,
    BbnNode,
    FormatError,
    InvalidBbnError,
    ThresholdEquation,
    bbn_from_dict,
    bbn_to_sem,
    check_equivalence,
    intervene_bbn,
    load_bbn,
    load_sem,
    sem_from_dict,
    validate,
)

from conftest import DATA
from test_cli import run

non_finite_floats = st.sampled_from([math.nan, math.inf, -math.inf])

# JSON spellings that parse to a non-finite value, or to an integer no float holds.
non_finite_literals = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]
)


def with_entry(row, position, value):
    row = list(row)
    row[position % len(row)] = value
    return row


def network_doc(cpt_row):
    return {"nodes": [{"name": "x", "outcomes": ["t", "f"], "parents": [], "cpt": [cpt_row]}]}


def sem_doc(threshold_row):
    return {"equations": [{"target": "x", "parents": [], "thresholds": [threshold_row]}]}


@given(value=non_finite_floats, position=st.integers(0, 1))
def test_validate_reports_a_non_finite_entry(value, position):
    row = tuple(with_entry((0.4, 0.6), position, value))
    report = validate(Bbn((BbnNode("x", ("t", "f"), (), (row,)),)))
    assert not report.valid
    assert [issue.kind for issue in report.issues] == ["entry-range"]


def test_check_equivalence_refuses_a_nan_row_instead_of_reporting_zero():
    bbn = Bbn((BbnNode("x", ("t", "f"), (), ((math.nan, 1.0),)),))
    ok = Bbn((BbnNode("x", ("t", "f"), (), ((0.5, 0.5),)),))
    with pytest.raises(InvalidBbnError, match="entry-range"):
        check_equivalence(bbn, bbn_to_sem(ok))


@given(value=non_finite_floats, position=st.integers(0, 2))
def test_threshold_equation_refuses_a_non_finite_entry(value, position):
    with pytest.raises(ValueError, match="non-finite"):
        ThresholdEquation((), (tuple(with_entry((0.2, 0.5, 1.0), position, value)),))


@given(value=non_finite_floats, position=st.integers(0, 1))
def test_intervention_refuses_a_non_finite_distribution(value, position, xy_bbn):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        intervene_bbn(xy_bbn, 0, tuple(with_entry((0.5, 0.5), position, value)))


@given(value=non_finite_floats)
def test_documents_built_in_memory_are_refused(value):
    with pytest.raises(FormatError, match="non-finite"):
        bbn_from_dict(network_doc([value, 1.0]))
    with pytest.raises(FormatError, match="non-finite"):
        sem_from_dict(sem_doc([value, 1.0]))


@given(literal=non_finite_literals)
@settings(max_examples=20, deadline=None)
def test_files_with_non_finite_literals_are_refused(tmp_path_factory, literal):
    folder = tmp_path_factory.mktemp("nonfinite")
    row = ["PLACEHOLDER", 1.0]
    cases = {
        load_bbn: network_doc(row),
        load_sem: sem_doc(row),
    }
    for loader, doc in cases.items():
        path = folder / f"{loader.__name__}.json"
        path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        with pytest.raises(FormatError, match="non-finite"):
            loader(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_cli_reports_a_parse_error(capsys, tmp_path, literal):
    path = tmp_path / "net.json"
    text = json.dumps(network_doc(["PLACEHOLDER", 1.0]))
    path.write_text(text.replace('"PLACEHOLDER"', literal))
    code, out, err = run(["verify", path], capsys)
    assert code == 2
    assert err.startswith("error:parse:") and "non-finite" in err


@pytest.mark.parametrize("dist", ["nan,1.0", "inf,0.0", "0.5,-inf"])
def test_cli_dist_flag_refuses_non_finite_numbers(capsys, tmp_path, dist):
    out_path = tmp_path / "after.json"
    code, out, err = run(
        ["intervene", DATA / "xy.json", "--node", "x", "--dist", dist, "--out", out_path],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:usage:")
    assert not out_path.exists()
