"""Golden corpus of the command line: exit code, stderr, stdout and written files.

Each case runs ``causalstruct.cli.main`` in process on inputs this module
builds deterministically: every subcommand on each bundled data file, seeded
systems from ``generators`` (planted cycles included), seeded networks from
``random_bbn`` through ``verify``, ``to-sem``, ``intervene``, ``graph`` and
``sample`` at two counts, and at least one case for each ``error:`` category
an input can reach.  ``error:verify`` has none, because no input reaches
it: a network that ``validate`` accepts passes ``verify`` (its joint gap
stays within the gate and its round trip cannot fail), and one that
``validate`` refuses stops at ``error:invalid-bbn`` first.

``data/cli_golden.json`` stores, per case, the argv, exit code, stderr and
stdout (the text when it is short, else its SHA-256) and the SHA-256 of each
file the case writes (null when the file is absent).  ``{data}`` and
``{tmp}`` stand for the data directory and the scratch directory in argv and
in the recorded output.  ``test_cli_corpus.py`` replays the corpus and
compares.  Replay it without pytest, say on another interpreter, with

    python tests/cli_corpus.py --check

which prints each changed case and exits 1 if there is one; regenerate it,
naming each changed case in CHANGES.md, with

    python tests/cli_corpus.py --write

``--interpreters PYTHON...`` runs ``--check`` under each interpreter given
and prints one ``version: ok`` or ``version: N changed`` line for each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # run as a script: import the package from the checkout
    sys.path.insert(0, str(HERE.parent / "src"))

from causalstruct.cli import main  # noqa: E402

from generators import (  # noqa: E402
    binary_chain_network,
    chain_system,
    fan_in_sem_doc,
    independent_binary_network,
    random_bbn,
    random_distribution,
    random_self_contained_system,
    random_square_matrix,
    system_doc,
)

DATA = HERE / "data"
GOLDEN = DATA / "cli_golden.json"
SHORT = 1500  # stdout up to this many characters is stored as text
UNENCODABLE = "\ud800x"  # a lone surrogate: valid in JSON, not in UTF-8


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    writes: tuple[str, ...] = ()  # argv paths whose contents are recorded
    closed_stdout: bool = False  # stdout is a pipe whose reader has gone


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(doc: object) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _network_doc(bbn) -> dict:
    return {
        "nodes": [
            {
                "name": node.name,
                "outcomes": list(node.outcomes),
                "parents": [bbn.nodes[p].name for p in node.parents],
                "cpt": [list(row) for row in node.cpt],
            }
            for node in bbn.nodes
        ]
    }


def _node(name, parents=(), cpt=((0.5, 0.5),)) -> dict:
    return {"name": name, "outcomes": ["t", "f"], "parents": list(parents), "cpt": [list(r) for r in cpt]}


def _ring_sem(names) -> dict:
    """Each variable's one parent is the variable before it, the first's the last."""
    return {
        "equations": [
            {"target": v, "parents": [names[k - 1]], "thresholds": [[0.5, 1.0], [0.3, 1.0]]}
            for k, v in enumerate(names)
        ]
    }


def build() -> tuple[dict[str, bytes], list[Case]]:
    """The input files, by name in the scratch directory, and the cases in run order."""
    inputs: dict[str, bytes] = {}
    cases: list[Case] = []

    def case(name, *argv, writes=(), closed_stdout=False):
        cases.append(Case(name, tuple(map(str, argv)), tuple(writes), closed_stdout))

    def structure_commands(stem, path):
        dot = f"{{tmp}}/{stem}.order.dot"
        case(f"{stem}/check", "check", path)
        case(f"{stem}/order", "order", path, "--dot", dot, writes=[dot])
        case(f"{stem}/triangularize", "triangularize", path)
        case(f"{stem}/graph", "graph", path)

    def network_commands(stem, path, node, dist):
        sem = f"{{tmp}}/{stem}.sem.json"
        after = f"{{tmp}}/{stem}.after.json"
        case(f"{stem}/verify", "verify", path)
        case(f"{stem}/to-sem", "to-sem", path, "--out", sem, writes=[sem])
        case(f"{stem}/intervene", "intervene", path, "--node", node, "--dist", dist, "--out", after, writes=[after])
        case(f"{stem}/graph", "graph", path)
        for count in (700, 2500):
            case(f"{stem}/sample-{count}", "sample", sem, "--seed", 7, "--count", count)

    # Every subcommand on each bundled data file.
    for data in sorted(DATA.glob("*.json")):
        if data == GOLDEN:
            continue
        stem, path = data.stem, f"{{data}}/{data.name}"
        structure_commands(stem, path)
        case(f"{stem}/to-sem-stdout", "to-sem", path)
        case(f"{stem}/verify", "verify", path)
        case(f"{stem}/sample", "sample", path, "--count", 10)
        after = f"{{tmp}}/{stem}.after.json"
        case(f"{stem}/intervene", "intervene", path, "--node", "x", "--dist", "1,0", "--out", after, writes=[after])
        case(f"{stem}/graph-dot", "graph", path, "--dot", f"{{tmp}}/{stem}.dot", writes=[f"{{tmp}}/{stem}.dot"])
    sem = "{tmp}/xy.sem.json"
    case("xy/to-sem-out", "to-sem", "{data}/xy.json", "--out", sem, writes=[sem])
    for count in (1, 3000):
        case(f"xy/sample-{count}", "sample", sem, "--seed", 5, "--count", count)
    inputs["longer.sem.json"] = b"x" * 4096  # overwritten in place and cut at the new end
    case("xy/to-sem-over-longer-file", "to-sem", "{data}/xy.json", "--out", "{tmp}/longer.sem.json",
         writes=["{tmp}/longer.sem.json"])

    # Seeded systems: self-contained with and without planted cycles, then arbitrary.
    for seed, n, extra, cycle in [(0, 6, 0.25, False), (1, 9, 0.25, True), (2, 12, 0.15, False),
                                  (3, 12, 0.15, True), (4, 60, 0.03, True), (5, 200, 0.005, False),
                                  (6, 200, 0.005, True)]:
        matrix = random_self_contained_system(random.Random(seed), n, n, extra, plant_cycle=cycle)
        stem = f"system-{seed}"
        inputs[f"{stem}.json"] = _json(system_doc(matrix))
        structure_commands(stem, f"{{tmp}}/{stem}.json")
    for seed in range(100, 106):
        stem = f"square-{seed}"
        inputs[f"{stem}.json"] = _json(system_doc(random_square_matrix(random.Random(seed))))
        structure_commands(stem, f"{{tmp}}/{stem}.json")

    # The benchmark's chain of 1500 equations, whose last equation's
    # augmenting path runs through the whole chain.
    inputs["chain-1500.json"] = _json(system_doc(chain_system(1500)))
    for command in ("check", "order", "triangularize"):
        case(f"chain-1500/{command}", command, "{tmp}/chain-1500.json")

    # Seeded networks.
    for seed, shape in [(0, {}), (1, {}), (2, {}), (3, {}), (30, {"max_nodes": 9, "max_outcomes": 3})]:
        rng = random.Random(seed)
        bbn = random_bbn(rng, **shape)
        last = bbn.nodes[-1]
        dist = ",".join(map(repr, random_distribution(rng, last.outcome_count)))
        stem = f"network-{seed}"
        inputs[f"{stem}.json"] = _json(_network_doc(bbn))
        network_commands(stem, f"{{tmp}}/{stem}.json", last.name, dist)

    # Threshold files sampled directly: cut points on the edges of the 256
    # buckets of a latent's leading byte, one variable of 300 outcomes, and
    # one equation of 512 rows.
    edges = [5e-324, 2.0**-53, 1 / 256, 0.3, 0.5, 255 / 256, 1 - 2.0**-53]
    inputs["edges.sem.json"] = _json({"equations": [
        {"target": "x", "parents": [], "thresholds": [edges + [1.0]]},
        {"target": "y", "parents": ["x"], "thresholds": [[0.0, 1.0]] + [[c, 1.0] for c in edges]},
        {"target": "z", "parents": ["x", "y"],
         "thresholds": [[a, b, 1.0] for a in [0.0] + edges for b in (a, 1 - 2.0**-53)]},
    ]})
    inputs["wide.sem.json"] = _json({"equations": [
        {"target": "w", "parents": [], "thresholds": [[(i + 1) / 300 for i in range(300)]]},
        {"target": "coin", "parents": [], "thresholds": [[0.5, 1.0]]},
    ]})
    rng = random.Random(512)
    parents = [f"p{i}" for i in range(9)]
    inputs["deep.sem.json"] = _json({"equations": [
        *({"target": p, "parents": [], "thresholds": [[rng.random(), 1.0]]} for p in parents),
        {"target": "c", "parents": parents, "thresholds": [[rng.random(), 1.0] for _ in range(512)]},
    ]})
    # Equations whose rows the byte lanes settle in more than one group: 256
    # rows over 8 binary parents, and a ternary child of 3 ternary parents.
    inputs["rows-256.sem.json"] = _json(fan_in_sem_doc(random.Random(256), 8, 2))
    inputs["ternary-27.sem.json"] = _json(fan_in_sem_doc(random.Random(27), 3, 3))
    for stem in ("edges", "wide", "deep", "rows-256", "ternary-27"):
        for count in (700, 4097):
            case(f"sem-{stem}/sample-{count}", "sample", f"{{tmp}}/{stem}.sem.json", "--seed", 7, "--count", count)

    # The report's edges: no variable at all, labels of one width up to the
    # widest (10 outcomes, x=0 to x=9) and labels of two widths (12 outcomes),
    # each with a child whose rows the wide parent picks.
    inputs["empty.sem.json"] = _json({"equations": []})
    for outcomes in (10, 12):
        inputs[f"outcomes-{outcomes}.sem.json"] = _json({"equations": [
            {"target": "x", "parents": [], "thresholds": [[(j + 1) / outcomes for j in range(outcomes)]]},
            {"target": "y", "parents": ["x"], "thresholds": [[j / outcomes, 1.0] for j in range(outcomes)]},
        ]})
    # Names of two, three and four UTF-8 bytes per character.
    inputs["names.sem.json"] = _json({"equations": [
        {"target": "température", "parents": [], "thresholds": [[0.2, 0.7, 1.0]]},
        {"target": "雨", "parents": ["température"], "thresholds": [[0.9, 1.0], [0.5, 1.0], [0.1, 1.0]]},
        {"target": "\U0001f327", "parents": [], "thresholds": [[0.5, 1.0]]},
    ]})
    for stem in ("empty", "outcomes-10", "outcomes-12", "names"):
        for count in (700, 4097):
            case(f"sem-{stem}/sample-{count}", "sample", f"{{tmp}}/{stem}.sem.json", "--seed", 7, "--count", count)

    # error:usage
    case("usage/no-command")
    case("usage/version", "--version")
    case("usage/missing-option", "intervene", "{data}/xy.json", "--node", "x")
    case("usage/count-not-an-int", "sample", sem, "--count", "many")
    case("usage/count-zero", "sample", sem, "--count", 0)
    for stem, dist in [("words", "one,zero"), ("nan", "nan,1"), ("short", "1"), ("sum", "0.5,0.4"),
                       ("overflow", "1e308,1e308")]:
        case(f"usage/dist-{stem}", "intervene", "{data}/xy.json", "--node", "x", "--dist", dist,
             "--out", "{tmp}/usage.json")
    case("usage/unknown-node", "intervene", "{data}/xy.json", "--node", "z", "--dist", "1,0",
         "--out", "{tmp}/usage.json")
    inputs["coins-21.json"] = _json(_network_doc(independent_binary_network(21)))
    inputs["chain-21.json"] = _json(_network_doc(binary_chain_network(21)))
    case("usage/verify-over-the-bound", "verify", "{tmp}/coins-21.json")
    case("usage/intervene-over-the-bound", "intervene", "{tmp}/chain-21.json", "--node", "c20",
         "--dist", "1,0", "--out", "{tmp}/chain-21.after.json", writes=["{tmp}/chain-21.after.json"])
    case("usage/intervene-within-the-bound", "intervene", "{tmp}/coins-21.json", "--node", "c0",
         "--dist", "1,0", "--out", "{tmp}/coins-21.after.json", writes=["{tmp}/coins-21.after.json"])

    # A name UTF-8 cannot encode fails with error:usage and prints nothing.
    named = {"variables": [UNENCODABLE], "equations": [{"label": "e1", "vars": [UNENCODABLE]}]}
    unused = {"variables": [UNENCODABLE, "y"],
              "equations": [{"label": "e1", "vars": ["y"]}, {"label": "e2", "vars": ["y"]}]}
    inputs["unencodable-system.json"] = _json(named)
    inputs["unencodable-unused.json"] = _json(unused)
    inputs["unencodable-invalid.json"] = _json({"nodes": [_node(UNENCODABLE, cpt=[[0.5, 0.6]])]})
    inputs["unencodable-network.json"] = _json({"nodes": [_node("a"), _node(UNENCODABLE)]})
    for command in ("order", "triangularize", "graph"):
        case(f"unencodable/{command}", command, "{tmp}/unencodable-system.json")
    case("unencodable/order-dot", "order", "{tmp}/unencodable-system.json", "--dot", "{tmp}/unencodable.dot",
         writes=["{tmp}/unencodable.dot"])
    case("unencodable/check", "check", "{tmp}/unencodable-unused.json")
    inputs["unencodable.sem.json"] = _json({"equations": [
        {"target": "a", "parents": [], "thresholds": [[0.5, 1.0]]},
        {"target": UNENCODABLE, "parents": [], "thresholds": [[0.5, 1.0]]}]})
    case("unencodable/sample", "sample", "{tmp}/unencodable.sem.json", "--count", 10)
    for command in ("verify", "to-sem"):
        case(f"unencodable/{command}-invalid", command, "{tmp}/unencodable-invalid.json")
    case("unencodable/graph-network-dot", "graph", "{tmp}/unencodable-network.json", "--dot",
         "{tmp}/unencodable-network.dot", writes=["{tmp}/unencodable-network.dot"])
    after = "{tmp}/unencodable.after.json"
    case("unencodable/intervene", "intervene", "{tmp}/unencodable-network.json", "--node", "a",
         "--dist", "1,0", "--out", after, writes=[after])

    # error:io
    case("io/missing-file", "check", "{tmp}/missing.json")
    case("io/directory", "verify", "{tmp}")
    case("io/dot-in-missing-directory", "order", "{data}/seat_belts.json", "--dot", "{tmp}/no/G.dot")
    case("io/closed-stdout", "order", "{data}/seat_belts.json", closed_stdout=True)
    case("io/closed-stdout-silent", "to-sem", "{data}/xy.json", "--out", "{tmp}/closed.sem.json",
         writes=["{tmp}/closed.sem.json"], closed_stdout=True)

    # error:parse
    raw = {
        "broken": b"{not json",
        "undecodable": b"\xff\xfe{",
        "deep": b"[" * 100000,
        "nan": b'{"nodes": [{"name": "x", "outcomes": ["t", "f"], "parents": [], "cpt": [[NaN, 0.5]]}]}',
        "huge-integer": b'{"variables": ["a"], "equations": [{"label": "e", "vars": ["a", ' + b"1" * 5001 + b"]}]}",
        "unknown-key": b'{"variables": ["x"], "equations": [], "bogus": 1}',
        "not-square": b'{"variables": ["x", "y"], "equations": [{"label": "e1", "vars": ["x"]}]}',
        "repeated-parent": _json({"equations": [
            {"target": "x", "parents": [], "thresholds": [[0.5, 1.0]]},
            {"target": "y", "parents": ["x", "x"], "thresholds": [[0.5, 1.0]] * 4}]}),
    }
    for stem, data in raw.items():
        inputs[f"parse-{stem}.json"] = data
        for command in ("check", "verify", "sample"):
            case(f"parse/{stem}/{command}", command, f"{{tmp}}/parse-{stem}.json")

    # error:cyclic
    inputs["loop.sem.json"] = _json(_ring_sem(["rain", "wet"]))
    inputs["ring.sem.json"] = _json(_ring_sem([f"r{k}" for k in range(5)]))
    inputs["self.sem.json"] = _json(_ring_sem(["x"]))  # a variable listed among its own parents
    for stem in ("loop", "ring", "self"):
        case(f"cyclic/sample-{stem}", "sample", f"{{tmp}}/{stem}.sem.json", "--count", 10)

    # error:invalid-bbn
    inputs["invalid-cycle.json"] = _json({"nodes": [
        _node("a", ["b"], [[0.5, 0.5]] * 2), _node("b", ["a"], [[0.1, 0.9]] * 2)]})
    inputs["invalid-rows.json"] = _json({"nodes": [
        _node("a", cpt=[[0.5, 0.6]]), _node("b", ["a"], [[0.1, 0.9]]), _node("c", ["a", "a"], [[1.5, -0.5]] * 4)]})
    # Finite entries whose sum overflows a float.
    inputs["invalid-overflow.json"] = _json({"nodes": [_node("x", cpt=[[1e308, 1e308]])]})
    for command in ("verify", "to-sem"):
        case(f"invalid-bbn/overflow/{command}", command, "{tmp}/invalid-overflow.json")
    for stem in ("cycle", "rows"):
        for command in ("verify", "to-sem", "graph"):
            case(f"invalid-bbn/{stem}/{command}", command, f"{{tmp}}/invalid-{stem}.json")
        case(f"invalid-bbn/{stem}/intervene", "intervene", f"{{tmp}}/invalid-{stem}.json", "--node", "a",
             "--dist", "1,0", "--out", f"{{tmp}}/invalid-{stem}.after.json",
             writes=[f"{{tmp}}/invalid-{stem}.after.json"])
    return inputs, cases


def _stdout(closed: bool):
    if not closed:
        return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    read, write = os.pipe()
    os.close(read)
    return io.TextIOWrapper(io.FileIO(write, "w"), encoding="utf-8", write_through=True)


def _run(case: Case, tmp: Path) -> dict:
    def fill(text):
        return text.replace("{data}", str(DATA)).replace("{tmp}", str(tmp))

    def blank(text):
        return text.replace(str(tmp), "{tmp}").replace(str(DATA), "{data}")

    stdout = _stdout(case.closed_stdout)
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace", write_through=True)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([fill(arg) for arg in case.argv])
            except SystemExit as stop:  # --help and --version exit inside argparse
                code = stop.code
        out = "" if case.closed_stdout else blank(stdout.buffer.getvalue().decode("utf-8"))
    finally:
        with contextlib.suppress(OSError):
            stdout.close()
    record = {"name": case.name, "argv": list(case.argv), "exit": code,
              "stderr": blank(stderr.buffer.getvalue().decode("utf-8"))}
    if len(out) <= SHORT:
        record["stdout"] = out
    else:
        record["stdout_sha256"] = _sha(out.encode("utf-8"))
    if case.writes:
        files = {}
        for path in case.writes:
            target = Path(fill(path))
            files[path] = _sha(target.read_bytes()) if target.exists() else None
        record["files"] = files
    return record


def record(tmp: Path) -> dict:
    """Build the inputs in ``tmp``, run every case there and return the corpus document."""
    inputs, cases = build()
    for name, data in inputs.items():
        (tmp / name).write_bytes(data)
    return {
        "inputs": {name: _sha(data) for name, data in sorted(inputs.items())},
        "cases": [_run(case, tmp) for case in cases],
    }


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def changed(old: dict, new: dict) -> list[str]:
    """Names of the cases and inputs that differ between two corpus documents."""
    old_cases = {case["name"]: case for case in old["cases"]}
    new_cases = {case["name"]: case for case in new["cases"]}
    names = [f"input {name}" for name in sorted(set(old["inputs"]) | set(new["inputs"]))
             if old["inputs"].get(name) != new["inputs"].get(name)]
    names += [name for name in sorted(set(old_cases) | set(new_cases))
              if old_cases.get(name) != new_cases.get(name)]
    if not names and list(old_cases) != list(new_cases):
        names.append("case order")
    return names


def check_under(pythons: list[str]) -> bool:
    """Replay the corpus under each interpreter in ``pythons``, one line each; True if all pass."""
    passed = True
    for python in pythons:
        try:
            version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                     capture_output=True, text=True).stdout.strip() or python
            run = subprocess.run([python, __file__, "--check"], capture_output=True, text=True)
        except OSError as exc:  # no such interpreter
            print(f"{python}: {exc}")
            passed = False
            continue
        lines = run.stdout.count("changed:")
        if run.returncode == 0:
            print(f"{version}: ok")
        elif lines:
            print(f"{version}: {lines} changed")
        else:
            print(f"{version}: failed with exit code {run.returncode}\n{run.stderr}", end="")
        passed = passed and run.returncode == 0
    return passed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--interpreters"] and sys.argv[2:]:
        sys.exit(0 if check_under(sys.argv[2:]) else 1)
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit(f"usage: python {sys.argv[0]} --write | --check | --interpreters PYTHON...")
    with tempfile.TemporaryDirectory() as scratch:
        doc = record(Path(scratch))
    names = changed(json.loads(GOLDEN.read_text(encoding="utf-8")), doc) if GOLDEN.exists() else []
    for name in names:
        print("changed:", name)
    if sys.argv[1] == "--write":
        GOLDEN.write_text(render(doc), encoding="utf-8")
    elif names:
        sys.exit(1)
