"""Command-line front end.

Exit codes: 0 success, 1 validation failure (a report is printed), 2 IO,
parse or usage errors.  Every failure also emits one machine-parseable
line ``error:<category>: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
from operator import getitem
from pathlib import Path

from . import __version__
from .bbn import ROW_SUM_TOLERANCE, _json_floats, _require_valid
from .bbn import bbn_from_dict, bbn_to_dot, load_bbn, save_bbn
from .errors import (
    CycleError,
    CyclicStructureError,
    FormatError,
    InvalidBbnError,
    NotSelfContainedError,
)
from .intervention import compare_marginals, intervene_bbn
from .ordering import causal_ordering, ordering_to_dot
from .sem import (
    bbn_to_sem,
    check_equivalence,
    load_sem,
    roundtrip_check,
    sample,
    sem_to_dict,
)
from .structure import _json_text, _load_json, load_system, system_from_dict
from .triangular import is_triangularizable, triangularize


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return _json_floats(list(map(float, text.split(","))), "--dist")
    except ValueError:  # a part that is no number, or FormatError for a non-finite one
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of finite floats: {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="causalstruct", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="report self-containment and acyclicity of a system")
    p.add_argument("system", type=Path)

    p = sub.add_parser("order", help="print the causal ordering of a system")
    p.add_argument("system", type=Path)
    p.add_argument("--dot", type=Path, help="also write the causal graph as DOT")

    p = sub.add_parser("triangularize", help="permute a system to lower-triangular form")
    p.add_argument("system", type=Path)

    p = sub.add_parser("to-sem", help="convert a network file to a threshold-equation file")
    p.add_argument("bbn", type=Path)
    p.add_argument("--out", type=Path, help="output path (stdout if omitted)")

    p = sub.add_parser("verify", help="check joint equivalence and the structural round trip")
    p.add_argument("bbn", type=Path)

    p = sub.add_parser("sample", help="tally seeded draws from a threshold-equation file")
    p.add_argument("sem", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10000)

    p = sub.add_parser("intervene", help="impose a distribution on a node, cutting its arcs")
    p.add_argument("bbn", type=Path)
    p.add_argument("--node", required=True)
    p.add_argument("--dist", required=True, type=_csv_floats)
    p.add_argument("--out", required=True, type=Path, help="where to write the edited network")

    p = sub.add_parser("graph", help="emit DOT for a network or a system's ordering")
    p.add_argument("input", type=Path)
    p.add_argument("--dot", type=Path, help="output path (stdout if omitted)")

    return parser


def _cmd_check(args) -> int:
    matrix = load_system(args.system)
    try:
        acyclic = is_triangularizable(matrix)
    except NotSelfContainedError as exc:
        report = exc.report
        print("self-contained: no")
        if report.unused_variables:
            names = ", ".join(matrix.variable_names[v] for v in report.unused_variables)
            print(f"variables in no equation: {names}")
        if report.violation is not None:
            print(f"violating subset: {report.violation.describe(matrix)}")
        print("error:not-self-contained: system check failed", file=sys.stderr)
        return 1
    print("self-contained: yes")
    print(f"acyclic: {'yes' if acyclic else 'no'}")
    return 0


def _cmd_order(args) -> int:
    matrix = load_system(args.system)
    ordering = causal_ordering(matrix)
    if args.dot:
        args.dot.write_text(ordering_to_dot(ordering), encoding="utf-8")
    print("order  degree  variables")
    for cluster in ordering.clusters:
        names = ", ".join(matrix.variable_names[v] for v in sorted(cluster.variables))
        print(f"{cluster.order:>5}  {cluster.degree:>6}  {names}")
    print("edges:")

    def flow(edge):  # read top-down through the ordering
        u, v = edge
        return (
            ordering.clusters[ordering.cluster_of_variable(u)].order,
            ordering.clusters[ordering.cluster_of_variable(v)].order,
            u,
            v,
        )

    for u, v in sorted(ordering.variable_edges, key=flow):
        print(f"  {matrix.variable_names[u]} -> {matrix.variable_names[v]}")
    return 0


def _cmd_triangularize(args) -> int:
    matrix = load_system(args.system)
    try:
        result = triangularize(matrix)
    except CyclicStructureError as exc:
        labels = ", ".join(
            matrix.equation_labels[e] for e in sorted(exc.remaining_equations)
        )
        print(f"error:cyclic: witness {{{labels}}}", file=sys.stderr)
        return 1
    print("row order: " + ", ".join(matrix.equation_labels[e] for e in result.row_perm))
    print("column order: " + ", ".join(matrix.variable_names[v] for v in result.col_perm))
    print("determined by:")
    for e, v in zip(result.row_perm, result.col_perm):
        print(f"  {matrix.equation_labels[e]} -> {matrix.variable_names[v]}")
    return 0


def _cmd_to_sem(args) -> int:
    text = _json_text(sem_to_dict(bbn_to_sem(load_bbn(args.bbn))))
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    bbn = load_bbn(args.bbn)
    deviation = check_equivalence(bbn, bbn_to_sem(bbn))
    ok = roundtrip_check(bbn)
    print(f"max deviation {deviation:.3e}; roundtrip: {'ok' if ok else 'FAIL'}")
    # bbn_to_sem moves each node's intervals by at most the row-sum slack, and
    # for factors in [0, 1] the joint gap is at most the sum of the factor
    # gaps; the extra slack is rounding.
    if deviation > (bbn.n + 1) * ROW_SUM_TOLERANCE or not ok:
        print("error:verify: equivalence or round trip failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(args) -> int:
    sem = load_sem(args.sem)
    try:
        counts = sample(sem, args.seed, args.count)
    except CycleError as exc:
        print(f"error:cyclic: {exc.describe(sem.variable_names)}", file=sys.stderr)
        return 1
    total = args.count
    labels = [
        [f"{name}={j}" for j in range(k)]
        for name, k in zip(sem.variable_names, sem.outcome_counts())
    ]
    keys = sorted(counts)
    texts = [" ".join(map(getitem, labels, key)) for key in keys]
    width = max(len("assignment"), *map(len, texts))
    row = f"%-{width}s  %10d  %.6f\n"
    report = [f"draws: {total}\nseed: {args.seed}\n{'assignment':<{width}}  {'count':>10}  frequency\n"]
    report += [row % (text, n, n / total) for text, n in zip(texts, map(counts.__getitem__, keys))]
    sys.stdout.write("".join(report))
    return 0


def _cmd_intervene(args) -> int:
    before = load_bbn(args.bbn)
    _require_valid(before)
    try:
        node = before.index_of(args.node)
    except KeyError:
        print(f"error:usage: unknown node {args.node!r}", file=sys.stderr)
        return 2
    after = intervene_bbn(before, node, args.dist)
    deltas = compare_marginals(before, after)
    save_bbn(after, args.out)
    width = max(len("variable"), max(len(name) for name in deltas))
    print(f"{'variable':<{width}}  max marginal deviation")
    for name in (n.name for n in before.nodes):
        print(f"{name:<{width}}  {deltas[name]:.3e}")
    return 0


def _cmd_graph(args) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "nodes" in doc:
        text = bbn_to_dot(bbn_from_dict(doc))
    else:
        text = ordering_to_dot(causal_ordering(system_from_dict(doc)))
    if args.dot:
        args.dot.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "order": _cmd_order,
    "triangularize": _cmd_triangularize,
    "to-sem": _cmd_to_sem,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "intervene": _cmd_intervene,
    "graph": _cmd_graph,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error:parse: {exc}", file=sys.stderr)
        return 2
    except NotSelfContainedError as exc:
        print(f"error:not-self-contained: {exc}", file=sys.stderr)
        return 1
    except InvalidBbnError as exc:
        print(exc.report.describe())
        print("error:invalid-bbn: network failed validation", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
