"""Every documented refusal of the three file formats, one document each.

Each malformed document maps to the fragment of the ``FormatError`` it must
raise; the CLI turns any of them into one ``error:parse:`` line and exit 2.
"""

import json

import pytest

from causalstruct import FormatError, bbn_from_dict, sem_from_dict, system_from_dict
from causalstruct.cli import main


def node(name="x", **fields):
    return {"name": name, "parents": [], "outcomes": ["a", "b"], "cpt": [[0.5, 0.5]], **fields}


def network(*nodes):
    return {"nodes": list(nodes)}


def system(variables, *labels_and_vars):
    equations = [{"label": label, "vars": names} for label, names in labels_and_vars]
    return {"variables": variables, "equations": equations}


def thresholds(rows, **fields):
    return {"equations": [{"target": "x", "parents": [], "thresholds": rows, **fields}]}


ONE_OUTCOME = network(node(outcomes=["a"], cpt=[[1.0]]))

REFUSALS = [
    (bbn_from_dict, [], "network document must be a JSON object"),
    (bbn_from_dict, network(node(outcomes="ab")), "node 'x': \"outcomes\" must be a list of strings"),
    (bbn_from_dict, network(node(outcomes=["a", 1])), "node 'x': \"outcomes\" must be a list"),
    (bbn_from_dict, ONE_OUTCOME, "node 'x' needs at least two outcomes"),
    (bbn_from_dict, network(node(outcomes=["a", "a"])), "node 'x' has duplicate outcome labels"),
    (bbn_from_dict, network(node("")), "node names must be non-empty"),
    (bbn_from_dict, network(node(color="red")), "unknown keys in node 'x': ['color']"),
    (bbn_from_dict, network(node(parents="x")), "node 'x': \"parents\" must be a list of strings"),
    (bbn_from_dict, network(node(parents=None)), '"parents" must be a list of strings'),
    (bbn_from_dict, network(node(), node()), "node names must be distinct"),
    (system_from_dict, [], "system document must be a JSON object"),
    (system_from_dict, {"variables": ["x"], "equations": {"e": ["x"]}}, '"equations" must be a list'),
    (system_from_dict, {"variables": ["x"], "equations": [["x"]]}, "equation 0 must be a JSON object"),
    (system_from_dict, system(["x"], (5, ["x"])), "equation 0: \"label\" must be a non-empty string"),
    (system_from_dict, system(["x"], ("", ["x"])), "equation labels must be non-empty"),
    (system_from_dict, system(["x", "y"], ("e", ["x"]), ("e", ["y"])), "equation labels must be distinct"),
    (system_from_dict, system([""], ("e", [""])), "variable names must be non-empty"),
    (system_from_dict, system(["x"], ("e", "x")), "equation 'e': \"vars\" must be a list of strings"),
    (bbn_from_dict, network(node(cpt=0.5)), "node 'x': \"cpt\" must be a list of rows"),
    (sem_from_dict, thresholds(0.5), "equation 'x': \"thresholds\" must be a list of rows"),
    (sem_from_dict, thresholds([]), "equation 'x': an equation needs at least one threshold row"),
    (sem_from_dict, thresholds([[1.0]]), "equation 'x': threshold rows need at least two outcomes"),
    (sem_from_dict, thresholds([[-0.1, 1.0]]), "equation 'x': threshold row 0 has a negative entry"),
    (sem_from_dict, thresholds([[0.5, 1.0], [1.0]]), "equation 'x': threshold row 1 has inconsistent length"),
    (sem_from_dict, thresholds([[0.5, 1.0]], parents="x"), "equation 'x': \"parents\" must be a list of strings"),
    (sem_from_dict, thresholds([[0.5, 1.0]], parents=None), '"parents" must be a list of strings'),
]


@pytest.mark.parametrize(
    "parse, doc, fragment", REFUSALS, ids=[f"{p.__name__}:{m}" for p, _, m in REFUSALS]
)
def test_refusal_names_the_fault(parse, doc, fragment):
    with pytest.raises(FormatError) as info:
        parse(doc)
    assert fragment in str(info.value)


def test_a_node_is_named_once():
    with pytest.raises(FormatError) as info:
        bbn_from_dict(ONE_OUTCOME)
    assert str(info.value) == "node 'x' needs at least two outcomes"


@pytest.mark.parametrize(
    "argv, doc, line",
    [
        (["check"], {"variables": ["x"], "equations": [["x"]]}, "equation 0 must be a JSON object"),
        (["verify"], ONE_OUTCOME, "node 'x' needs at least two outcomes"),
        (["sample", "--count", "5"], thresholds([]), "equation 'x': an equation needs at least one threshold row"),
    ],
    ids=["system", "network", "thresholds"],
)
def test_cli_prints_one_parse_error(argv, doc, line, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error:parse: {line}\n")
