"""No input file or flag makes the CLI raise: every failure is one ``error:`` line.

Generated system, network and threshold files, each possibly mutated
(a key or list item dropped, a value swapped for one of the wrong type or
range, a name copied onto another, a parent added that may close a cycle),
are run through every subcommand with in-process ``main``.  Generated
networks are valid, some with row sums at the edge of the tolerance, so
``to-sem`` and ``verify`` must not call one left unmutated unusable.  The
inputs stay small, at most 12 equations, so the recursive matching stays far
below its recursion limit of about 1000 nested augmenting steps; deep inputs
are covered by the graph and CLI tests of their own.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from causalstruct import Bbn, BbnNode, bbn_to_dict, bbn_to_sem, sem_to_dict
from causalstruct.bbn import ROW_SUM_TOLERANCE
from causalstruct.cli import main

CATEGORIES = ("usage", "io", "parse", "not-self-contained", "cyclic", "invalid-bbn", "verify")
ERROR_LINE = re.compile(r"error:(%s): " % "|".join(map(re.escape, CATEGORIES)))

# Wrong types, out-of-range numbers and non-finite values.
JUNK = st.sampled_from(
    [None, True, 0, -1, 2, 1.5, -0.25, 10**400, 1e308, math.nan, "", "x", "v0", [], [[]], {}, {"k": 1}]
)


@st.composite
def system_docs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    names = [f"v{i}" for i in range(n)]
    rows = [draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)) for _ in range(n)]
    return {
        "variables": names,
        "equations": [{"label": f"e{i}", "vars": row} for i, row in enumerate(rows)],
    }


@st.composite
def networks(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    counts = [draw(st.integers(2, 3)) for _ in range(n)]
    nodes = []
    for i in range(n):
        parents = tuple(draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True))) if i else ()
        rows = []
        for _ in range(math.prod(counts[p] for p in parents)):
            weights = [draw(st.integers(0, 4)) for _ in range(counts[i])]
            weights[-1] += not any(weights)
            row = [w / sum(weights) for w in weights]
            if not draw(st.integers(0, 3)):  # a sum at the edge of the tolerance, or inside it
                j = row.index(max(row))
                edge = draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0])) * ROW_SUM_TOLERANCE
                shifted = row[:j] + [row[j] + 1.0 + edge - math.fsum(row)] + row[j + 1:]
                while abs(math.fsum(shifted) - 1.0) > ROW_SUM_TOLERANCE:
                    shifted[j] = math.nextafter(shifted[j], math.copysign(2.0, -edge))
                if shifted[j] <= 1.0:
                    row = shifted
            rows.append(tuple(row))
        nodes.append(BbnNode(f"v{i}", tuple(f"o{j}" for j in range(counts[i])), parents, tuple(rows)))
    return Bbn(tuple(nodes))


# Each file kind with the subcommands that read it; any subcommand may get any file.
KINDS = {
    "system": (system_docs(), ["check", "order", "triangularize", "graph"]),
    "network": (networks().map(bbn_to_dict), ["to-sem", "verify", "intervene", "graph"]),
    "threshold": (networks().map(lambda bbn: sem_to_dict(bbn_to_sem(bbn))), ["sample"]),
}
COMMANDS = ["check", "order", "triangularize", "to-sem", "verify", "sample", "intervene", "graph"]


def _places(doc, path=()):
    """The path of every value inside the document, outermost first."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


def _names(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, (list, dict)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _names(value)


def _close_cycle(doc, kind):
    """Make an item's first parent depend on the item, keeping row counts consistent."""
    key, name, rows, width = {
        "network": ("nodes", "name", "cpt", lambda item: len(item["outcomes"])),
        "threshold": ("equations", "target", "thresholds", lambda item: len(item["thresholds"][0])),
    }[kind]
    items = {item[name]: item for item in doc[key]}
    child = next((item for item in doc[key] if item["parents"]), None)
    if child is not None:
        parent = items[child["parents"][0]]
        parent["parents"].append(child[name])
        parent[rows] = [row for row in parent[rows] for _ in range(width(child))]


@st.composite
def mutated(draw):
    """A generated file, possibly damaged, the subcommand to run on it, and its kind.

    The kind is ``None`` once the file may have been damaged.
    """
    kind = draw(st.sampled_from(sorted(KINDS)))
    docs, commands = KINDS[kind]
    doc = draw(docs)
    damaged = kind != "system" and draw(st.booleans())
    if damaged:
        _close_cycle(doc, kind)
    mutations = draw(st.integers(0, 2))
    for _ in range(mutations):
        places = list(_places(doc))
        if not places:
            break
        *outer, key = draw(st.sampled_from(places))
        container = doc
        for step in outer:
            container = container[step]
        change = draw(st.sampled_from(["drop", "junk", "name", "append"]))
        if change == "drop":
            del container[key]
        elif change == "junk":
            container[key] = copy.deepcopy(draw(JUNK))
        elif change == "name":  # repeats a name, or adds an arc
            container[key] = draw(st.sampled_from(sorted(set(_names(doc))) or [""]))
        elif isinstance(container[key], list):
            container[key].append(draw(st.sampled_from(sorted(set(_names(doc))) or [0])))
    command = draw(st.sampled_from(commands if draw(st.integers(0, 4)) else COMMANDS))
    return doc, command, None if damaged or mutations else kind


def arguments(draw, command, path, workdir):
    argv = [command, str(path)]
    if command in ("order", "graph", "to-sem") and draw(st.booleans()):
        flag = "--out" if command == "to-sem" else "--dot"
        argv += [flag, draw(st.sampled_from([str(workdir / "out"), str(workdir)]))]
    elif command == "sample":
        argv += ["--seed", str(draw(st.integers(-3, 3))), "--count", str(draw(st.integers(-1, 40)))]
    elif command == "intervene":
        node = draw(st.sampled_from(["v0", "v1", "v4", "nope", ""]))
        dist = draw(st.sampled_from(["1,0", "0.5,0.5", "0.2,0.3,0.5", "1", "-1,2", "nan,1", "a,b", ""]))
        argv += ["--node", node, "--dist", dist, "--out", str(workdir / "after.json")]
    return argv


@given(mutated(), st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_failure_is_one_error_line(case, data):
    doc, command, intact = case
    with tempfile.TemporaryDirectory() as name:
        workdir = Path(name)
        path = workdir / "input.json"
        path.write_text(json.dumps(doc))
        argv = arguments(data.draw, command, path, workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse exits on bad flags
                code = stop.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert lines and ERROR_LINE.match(lines[-1]), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
    if intact == "network" and command in ("to-sem", "verify"):
        # A valid network is never refused as unusable; an unwritable --out
        # or a failed comparison may still end the command.
        assert not err.getvalue().startswith(("error:usage:", "error:invalid-bbn:")), (argv, err.getvalue())
