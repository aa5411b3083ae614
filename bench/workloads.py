"""The operations of each workload, built from the seed, with their checks.

An operation is either one CLI invocation (``argv`` after the program
name) or one in-process library call (``call``).  Library calls go through
module attributes at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import causalstruct as cs
from causalstruct import triangular  # triangularize is missing from __all__
from causalstruct.errors import CyclicStructureError, NotSelfContainedError

from bench import checks, generate


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    kind: str  # "cli" or "lib"
    label: str
    check: Callable[[object], None]
    call: Callable[[], object] | None = None
    argv: tuple[str, ...] = ()
    credit: float = 0.0  # work units earned when the answer checks out


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# structure


def _triangularize(matrix):
    try:
        return triangular.triangularize(matrix)
    except CyclicStructureError as exc:  # the documented answer on feedback systems
        return exc


def _check_triangularize(system, result):
    if system.acyclic:
        checks.require(not isinstance(result, CyclicStructureError), "acyclic system reported cyclic")
        checks.lower_triangular(system, result.row_perm, result.col_perm)
    else:
        checks.require(isinstance(result, CyclicStructureError), "feedback system triangularized")
        checks.cyclic_witness(system, result.remaining_equations)


def _edit(matrix, change, equation):
    edited = cs.apply_change(matrix, change)
    return edited, cs.affected_variables(cs.causal_ordering(edited), equation)


def _break(matrix, change):
    try:
        cs.apply_change(matrix, change)
    except NotSelfContainedError as exc:  # the documented answer
        return exc.report
    return None


def structure(params: dict, seed: int, workdir: Path) -> list[Op]:
    systems = generate.structure_systems(seed, params["systems"])
    ops = []
    for system in systems:
        path = _write(workdir / f"{system.name}.json", system.doc())
        matrix = cs.load_system(path)
        # Edit an equation of the block holding the middle variable: dropping
        # its parents keeps the system self-contained and leaves its
        # downstream closure as planted.  On the chain this halves the
        # longest augmenting path, so the edit's outcome does not vary by seed.
        block = system.block_of[system.n // 2]
        equation = system.equations_of[block][0]
        keep = system.blocks[block]
        change = cs.StructuralChange(
            "replace_equation", f"e{equation}", tuple(f"v{v}" for v in keep)
        )
        # Giving that equation the row of one in the first block, which has
        # no parents, leaves the block's k variables to k + 1 equations: the
        # edit must be refused with a Hall violator as witness.
        root = system.equations_of[0][0]
        breaking = cs.StructuralChange(
            "replace_equation", f"e{equation}", tuple(f"v{v}" for v in sorted(system.rows[root]))
        )
        name = system.name
        nnz = system.nnz
        ops += [
            Op("cli", f"check {name}", partial(checks.cli_check, system), argv=("check", path)),
            Op("lib", f"check_system {name}", checks.self_contained,
               call=lambda m=matrix: cs.check_system(m), credit=nnz),
            Op("cli", f"order {name}", partial(checks.cli_order, system), argv=("order", path)),
            Op("lib", f"causal_ordering {name}", partial(checks.ordering, system),
               call=lambda m=matrix: cs.causal_ordering(m), credit=nnz),
            Op("cli", f"triangularize {name}", partial(checks.cli_triangularize, system),
               argv=("triangularize", path)),
            Op("lib", f"triangularize {name}", partial(_check_triangularize, system),
               call=partial(_triangularize, matrix), credit=nnz),
            Op("lib", f"edit {name}",
               lambda result, s=system, e=equation: checks.edit(s, e, *result),
               call=partial(_edit, matrix, change, equation), credit=nnz),
            Op("lib", f"break {name}", partial(checks.refused_edit, system, equation, root),
               call=partial(_break, matrix, breaking), credit=nnz),
        ]
    return ops


# ---------------------------------------------------------------------------
# networks


def _verify_network(bbn, node, dist):
    sem = cs.bbn_to_sem(bbn)
    gap = cs.check_equivalence(bbn, sem)
    roundtrip = cs.roundtrip_check(bbn)
    after = cs.intervene_bbn(bbn, node, dist)
    return sem, gap, roundtrip, after, cs.compare_marginals(bbn, after)


def _check_cli_intervene(network, node, dist, out, result):
    checks.exit_code(result, 0)
    written = json.loads(Path(out).read_text(encoding="utf-8"))
    checks.cli_intervene(network, node, dist, result, written)


def networks(params: dict, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    # Shapes and arcs come from a fixed draw, so every seed has the same cost profile.
    shapes = random.Random(params["shape_seed"])
    nets = [
        generate.random_network(rng, shapes, **params["network"]) for _ in range(params["count"])
    ]
    edits = [generate.intervention(rng, net, params["degenerate_prob"]) for net in nets]
    on_cli = set(rng.sample(range(len(nets)), params["cli_networks"]))
    ops = []
    for i, (net, (node, dist)) in enumerate(zip(nets, edits)):
        path = _write(workdir / f"net{i}.json", net.doc())
        bbn = cs.load_bbn(path)
        ops.append(
            Op("lib", f"network {i}", partial(checks.network_lib, net, node, dist),
               call=partial(_verify_network, bbn, node, dist), credit=1)
        )
        if i in on_cli:
            out = str(workdir / f"net{i}-after.json")
            ops += [
                Op("cli", f"verify net{i}", checks.cli_verify, argv=("verify", path)),
                Op("cli", f"to-sem net{i}", partial(checks.cli_to_sem, net), argv=("to-sem", path)),
                Op("cli", f"intervene net{i}", partial(_check_cli_intervene, net, node, dist, out),
                   argv=("intervene", path, "--node", net.names[node],
                         "--dist", ",".join(map(repr, dist)), "--out", out)),
            ]
    return ops


# ---------------------------------------------------------------------------
# sample


class SampleTruth:
    """Checks one (seed, count) stream once, then demands identical repeats.

    The first answer, from either path, gets the full statistical check;
    every later library tally must equal it and every later CLI stdout must
    be byte-identical to the first.
    """

    def __init__(self, network, seed: int, draws: int):
        self.network = network
        self.seed = seed
        self.draws = draws
        self.tallies = None
        self.stdout = None

    def lib(self, counts) -> None:
        if self.tallies is None:
            checks.tallies(self.network, counts, self.draws)
            self.tallies = counts
        else:
            checks.require(counts == self.tallies, "tallies differ for a fixed (seed, count)")

    def cli(self, result: CliResult) -> None:
        if self.stdout is not None:
            checks.exit_code(result, 0)
            checks.require(result.stdout == self.stdout, "sample stdout differs between repeats")
            return
        self.lib(checks.parse_sample(result, self.seed, self.draws))
        self.stdout = result.stdout


def sample(params: dict, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    net = generate.layered_network(rng, **params["network"])
    draw_seed = rng.randrange(2**31)
    draws = params["draws"]
    path = _write(workdir / "sample.json", net.threshold_doc())
    sem = cs.load_sem(path)
    truth = SampleTruth(net, draw_seed, draws)
    return [
        Op("cli", "sample cli", truth.cli,
           argv=("sample", path, "--seed", str(draw_seed), "--count", str(draws))),
        Op("lib", "sample lib", truth.lib, call=lambda: cs.sample(sem, draw_seed, draws), credit=draws),
    ]


BUILDERS = {"structure": structure, "networks": networks, "sample": sample}
