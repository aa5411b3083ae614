"""No input file or flag makes the CLI raise: every failure is one ``error:`` line.

Generated system, network and threshold files, each possibly mutated
(a key or list item dropped, a value swapped for one of the wrong type or
range, a name copied onto another, a parent added that may close a cycle, one
name replaced throughout by one UTF-8 cannot encode, a whole row filled with
one extreme finite value),
are run through every subcommand with in-process ``main``.  Generated
networks are valid, some with row sums at the edge of the tolerance, so
``to-sem`` and ``verify`` must not call one left unmutated unusable, and
``verify`` must not fail one on its joint gap or round trip.  The
generated inputs stay small, at most 12 equations, so that many mutations
run quickly; one deep input, a chain of 5000 equations whose last
augmenting path runs through the whole chain, goes through every structure
subcommand on its own.
"""

import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from causalstruct import Bbn, BbnNode, bbn_to_dict, bbn_to_sem, sem_to_dict
from causalstruct.bbn import ROW_SUM_TOLERANCE
from causalstruct.cli import main

from generators import chain_system, system_doc

CATEGORIES = ("usage", "io", "parse", "not-self-contained", "cyclic", "invalid-bbn", "verify")
ERROR_LINE = re.compile(r"error:(%s): " % "|".join(map(re.escape, CATEGORIES)))

UNENCODABLE = "\ud800x"  # a lone surrogate: valid in JSON, not in UTF-8

# Wrong types, out-of-range numbers and non-finite values.
JUNK = st.sampled_from(
    [None, True, 0, -1, 2, 1.5, -0.25, 10**400, 1e308, math.nan, "", "x", "v0", [], [[]], {}, {"k": 1}]
)

# Finite values at the ends of the float range; a row of the large ones has no float sum.
EXTREME = st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324, 1e-308])


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


def _rows(doc):
    """Every list of numbers inside the document: its table and threshold rows."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        if doc and all(type(value) in (int, float) for value in doc):
            yield doc
        for value in doc:
            yield from _rows(value)


def _renamed(doc, old, new):
    """``doc`` with every string equal to ``old`` replaced by ``new``."""
    if isinstance(doc, list):
        return [_renamed(value, old, new) for value in doc]
    if isinstance(doc, dict):
        return {key: _renamed(value, old, new) for key, value in doc.items()}
    return new if doc == old else doc


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

    The kind is ``None`` once the file may have been damaged, or holds a
    name UTF-8 cannot encode.
    """
    kind = draw(st.sampled_from(sorted(KINDS)))
    docs, commands = KINDS[kind]
    doc = draw(docs)
    damaged = kind != "system" and draw(st.booleans())
    if damaged:
        _close_cycle(doc, kind)
    renamed = not draw(st.integers(0, 4))
    if renamed:  # still well formed, but its reports cannot be encoded
        doc = _renamed(doc, draw(st.sampled_from(sorted(set(_names(doc))))), UNENCODABLE)
    rows = list(_rows(doc))
    extreme = bool(rows) and not draw(st.integers(0, 3))
    if extreme:
        row = draw(st.sampled_from(rows))
        row[:] = [draw(EXTREME)] * len(row)
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
        elif change == "name":  # repeats a name, adds an arc, or one UTF-8 cannot encode
            container[key] = draw(st.sampled_from(sorted({*_names(doc), UNENCODABLE})))
        elif isinstance(container[key], list):
            container[key].append(draw(st.sampled_from(sorted(set(_names(doc))) or [0])))
    command = draw(st.sampled_from(commands if draw(st.integers(0, 4)) else COMMANDS))
    return doc, command, None if damaged or renamed or extreme or mutations else kind


def arguments(draw, command, path, workdir):
    argv = [command, str(path)]
    if command in ("order", "graph", "to-sem") and draw(st.booleans()):
        flag = "--out" if command == "to-sem" else "--dot"
        argv += [flag, draw(st.sampled_from([str(workdir / "out"), str(workdir)]))]
    elif command == "sample":
        argv += ["--seed", str(draw(st.integers(-3, 3))), "--count", str(draw(st.integers(-1, 40)))]
    elif command == "intervene":
        node = draw(st.sampled_from(["v0", "v1", "v4", "nope", ""]))
        dist = draw(st.sampled_from(["1,0", "0.5,0.5", "0.2,0.3,0.5", "1", "-1,2", "nan,1", "a,b", "", None]))
        if dist is None:  # every value the same extreme finite one
            dist = ",".join([repr(draw(EXTREME))] * draw(st.integers(1, 3)))
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
        # Strict UTF-8, like a real stdout; a StringIO would take a lone surrogate.
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # --help and --version exit inside argparse
                code = stop.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    out.flush()
    if code == 2:
        assert out.buffer.getvalue() == b"", (argv, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert lines and ERROR_LINE.match(lines[-1]), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
    if intact == "network" and command in ("to-sem", "verify"):
        # A valid network is never refused as unusable, nor failed by
        # verify; only an unwritable --out may still end the command.
        refused = ("error:usage:", "error:invalid-bbn:", "error:verify:")
        assert not err.getvalue().startswith(refused), (argv, err.getvalue())


STRUCTURE_COMMANDS = ("check", "order", "triangularize", "graph")


def test_structure_commands_take_a_deep_chain(tmp_path):
    path = tmp_path / "chain-5000.json"
    path.write_text(json.dumps(system_doc(chain_system(5000))))
    for command in STRUCTURE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        assert (code, err.getvalue()) == (0, ""), command
        assert out.getvalue()
