"""Command-line front end.

Exit codes: 0 success, 1 validation failure (a report is printed), 2 IO,
parse or usage errors.  Every failure also emits one machine-parseable
line ``error:<category>: ...`` on stderr.  Each ``_cmd_*`` returns its exit
code, stdout text and error line; ``main`` writes the text in one piece, so
a report it cannot encode leaves stdout empty.  The parser raises its usage
errors to ``main`` too; only ``--help`` and ``--version`` exit inside it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress
from pathlib import Path

from . import __version__
from .errors import (
    CycleError,
    CyclicStructureError,
    FormatError,
    InvalidBbnError,
    NotSelfContainedError,
)

# The digit of each value byte below 10, for the labels of the ``sample`` report.
_DIGITS = b"0123456789".ljust(256)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _csv_floats(text: str) -> tuple[float, ...]:
    from .bbn import _json_floats

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
    p.set_defaults(run=_cmd_check)
    p.add_argument("system", type=Path)

    p = sub.add_parser("order", help="print the causal ordering of a system")
    p.set_defaults(run=_cmd_order)
    p.add_argument("system", type=Path)
    p.add_argument("--dot", type=Path, help="also write the causal graph as DOT")

    p = sub.add_parser("triangularize", help="permute a system to lower-triangular form")
    p.set_defaults(run=_cmd_triangularize)
    p.add_argument("system", type=Path)

    p = sub.add_parser("to-sem", help="convert a network file to a threshold-equation file")
    p.set_defaults(run=_cmd_to_sem)
    p.add_argument("bbn", type=Path)
    p.add_argument("--out", type=Path, help="output path (stdout if omitted)")

    p = sub.add_parser("verify", help="check joint equivalence and the structural round trip")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("bbn", type=Path)

    p = sub.add_parser("sample", help="tally seeded draws from a threshold-equation file")
    p.set_defaults(run=_cmd_sample)
    p.add_argument("sem", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10000)

    p = sub.add_parser("intervene", help="impose a distribution on a node, cutting its arcs")
    p.set_defaults(run=_cmd_intervene)
    p.add_argument("bbn", type=Path)
    p.add_argument("--node", required=True)
    p.add_argument("--dist", required=True, type=_csv_floats)
    p.add_argument("--out", required=True, type=Path, help="where to write the edited network")

    p = sub.add_parser("graph", help="emit DOT for a network or a system's ordering")
    p.set_defaults(run=_cmd_graph)
    p.add_argument("input", type=Path)
    p.add_argument("--dot", type=Path, help="output path (stdout if omitted)")

    return parser


# Each command imports what it calls in its own body, so a CLI process loads
# only the modules of the command it runs.
def _cmd_check(args):
    from .structure import load_system
    from .triangular import is_triangularizable

    matrix = load_system(args.system)
    try:
        acyclic = is_triangularizable(matrix)
    except NotSelfContainedError as exc:
        report = exc.report
        out = "self-contained: no\n"
        if report.unused_variables:
            names = ", ".join(matrix.variable_names[v] for v in report.unused_variables)
            out += f"variables in no equation: {names}\n"
        out += f"violating subset: {report.violation.describe(matrix)}\n"
        return 1, out, "error:not-self-contained: system check failed"
    return 0, f"self-contained: yes\nacyclic: {'yes' if acyclic else 'no'}\n", None


def _cmd_order(args):
    from .ordering import causal_ordering, ordering_to_dot
    from .structure import _write_text, load_system

    matrix = load_system(args.system)
    ordering = causal_ordering(matrix)
    if args.dot:
        _write_text(args.dot, ordering_to_dot(ordering))
    names, n = matrix.variable_names, matrix.n
    level = [0] * n  # each variable's order
    lines = ["order  degree  variables"]
    for cluster in ordering.clusters:
        members = sorted(cluster.variables)
        for v in members:
            level[v] = cluster.order
        lines.append(f"{cluster.order:>5}  {cluster.degree:>6}  {', '.join([names[v] for v in members])}")
    lines.append("edges:")
    # Edges read top-down through the ordering: sorted by (order of u, order
    # of v, u, v), as one int per edge, from which u and v are read back.
    span = (max(level, default=0) + 1) * n
    keys = [((level[u] * span + level[v] * n) + u) * n + v for u, v in ordering.variable_edges]
    keys.sort()
    lines += [f"  {names[key // n % n]} -> {names[key % n]}" for key in keys]
    return 0, "\n".join(lines) + "\n", None


def _cmd_triangularize(args):
    from .structure import load_system
    from .triangular import triangularize

    matrix = load_system(args.system)
    try:
        result = triangularize(matrix)
    except CyclicStructureError as exc:
        labels = ", ".join(
            matrix.equation_labels[e] for e in sorted(exc.remaining_equations)
        )
        return 1, "", f"error:cyclic: witness {{{labels}}}"
    lines = [
        "row order: " + ", ".join(matrix.equation_labels[e] for e in result.row_perm),
        "column order: " + ", ".join(matrix.variable_names[v] for v in result.col_perm),
        "determined by:",
    ]
    for e, v in zip(result.row_perm, result.col_perm):
        lines.append(f"  {matrix.equation_labels[e]} -> {matrix.variable_names[v]}")
    return 0, "\n".join(lines) + "\n", None


def _file_or_stdout(path, text):
    """Write ``text`` to ``path`` and print nothing, or, with no path, print it."""
    from .structure import _write_text

    if path:
        _write_text(path, text)
        text = ""
    return 0, text, None


def _cmd_to_sem(args):
    from .bbn import load_bbn
    from .sem import bbn_to_sem, sem_to_dict
    from .structure import _json_text

    return _file_or_stdout(args.out, _json_text(sem_to_dict(bbn_to_sem(load_bbn(args.bbn)))))


def _cmd_verify(args):
    from .bbn import ROW_SUM_TOLERANCE, load_bbn
    from .sem import bbn_to_sem, check_equivalence

    bbn = load_bbn(args.bbn)
    deviation = check_equivalence(bbn, bbn_to_sem(bbn))
    # The round trip holds for every valid network (roundtrip_check's theorem).
    out = f"max deviation {deviation:.3e}; roundtrip: ok\n"
    # bbn_to_sem moves each node's intervals by at most the row-sum slack, and
    # for factors in [0, 1] the joint gap is at most the sum of the factor
    # gaps; the extra slack is rounding.
    if deviation > (bbn.n + 1) * ROW_SUM_TOLERANCE:
        return 1, out, "error:verify: equivalence failed"
    return 0, out, None


def _cmd_sample(args):
    from operator import getitem

    from .sem import _tally, load_sem

    sem = load_sem(args.sem)
    try:
        counts = _tally(sem, args.seed, args.count, "s")
    except CycleError as exc:
        return 1, "", f"error:cyclic: {exc.describe(sem.variable_names)}"
    total = args.count
    # Keys of one length sort the same as bytes and as tuples of values.
    keys = sorted(counts)
    # Few counts recur across many rows, so each count's columns are formatted once.
    tail = {n: "  %10d  %.6f\n" % (n, n / total) for n in set(counts.values())}
    # Byte-lane keys give rows of one stride when every label has one digit
    # (at most 10 outcomes) and every count fits its ten columns.
    if isinstance(keys[0], bytes) and max(sem.outcome_counts()) <= 10 and total < 10**10:
        head = " ".join(f"{name}=0" for name in sem.variable_names)
        width = max(len("assignment"), len(head))
        tail = {n: t.encode("ascii") for n, t in tail.items()}
        body = _columns(sem.variable_names, keys, [tail[counts[key]] for key in keys], head.ljust(width))
    else:
        labels = [
            [f"{name}={j}" for j in range(k)]
            for name, k in zip(sem.variable_names, sem.outcome_counts())
        ]
        texts = [" ".join(map(getitem, labels, key)) for key in keys]
        width = max(len("assignment"), *map(len, texts))
        body = "".join([text.ljust(width) + tail[counts[key]] for text, key in zip(texts, keys)])
    return 0, f"draws: {total}\nseed: {args.seed}\n{'assignment':<{width}}  {'count':>10}  frequency\n" + body, None


def _columns(names, keys, tails, head):
    """The report rows of the byte keys ``keys``: ``head`` with the key's digits written in, then its tail.

    ``head`` is every variable's outcome-0 label, joined by spaces and
    padded.  Every label has one digit and the tails share one width, so the
    rows have one stride, and each variable's digits are one strided slice of
    ``b"".join(keys).translate(_DIGITS)``.  Encoding with ``surrogatepass``
    gives a name UTF-8 cannot encode back unchanged, to fail where every
    report does.
    """
    head = head.encode("utf-8", "surrogatepass")
    body = bytearray(head) + head.join(tails)
    digits = b"".join(keys).translate(_DIGITS)
    stride, at = len(head) + len(tails[0]), -2
    for v, name in enumerate(names):
        at += len(name.encode("utf-8", "surrogatepass")) + 3  # the digit ending label v
        body[at::stride] = digits[v::len(names)]
    return body.decode("utf-8", "surrogatepass")


def _cmd_intervene(args):
    from .bbn import _require_valid, load_bbn, save_bbn
    from .intervention import compare_marginals, intervene_bbn

    before = load_bbn(args.bbn)
    _require_valid(before)
    after = intervene_bbn(before, before.index_of(args.node), args.dist)
    deltas = compare_marginals(before, after)
    save_bbn(after, args.out)
    width = max(len("variable"), max(len(name) for name in deltas))
    lines = [f"{'variable':<{width}}  max marginal deviation"]
    lines += [f"{n.name:<{width}}  {deltas[n.name]:.3e}" for n in before.nodes]
    return 0, "\n".join(lines) + "\n", None


def _cmd_graph(args):
    from .structure import _load_json

    doc = _load_json(args.input)
    if isinstance(doc, dict) and "nodes" in doc:
        from .bbn import bbn_from_dict, bbn_to_dot

        text = bbn_to_dot(bbn_from_dict(doc))
    else:
        from .ordering import causal_ordering, ordering_to_dot
        from .structure import system_from_dict

        text = ordering_to_dot(causal_ordering(system_from_dict(doc)))
    return _file_or_stdout(args.dot, text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, out, error = args.run(args)
    except OSError as exc:
        code, out, error = 2, "", f"error:io: {exc}"
    except FormatError as exc:
        code, out, error = 2, "", f"error:parse: {exc}"
    except NotSelfContainedError as exc:
        code, out, error = 1, "", f"error:not-self-contained: {exc}"
    except InvalidBbnError as exc:
        code, out = 1, exc.report.describe() + "\n"
        error = "error:invalid-bbn: network failed validation"
    except KeyError as exc:  # str() would quote the message
        code, out, error = 2, "", f"error:usage: {exc.args[0]}"
    except ValueError as exc:
        code, out, error = 2, "", f"error:usage: {exc}"
    try:
        if out:
            sys.stdout.write(out)
    except AttributeError:  # sys.stdout is None when fd 1 was closed at start-up
        code, error = 2, "error:io: stdout is closed"
    except UnicodeEncodeError as exc:  # encoded whole before any byte is written
        code, error = 2, f"error:usage: {exc}"
    except OSError as exc:  # such as a pipe whose reader has gone
        code, error = 2, f"error:io: {exc}"
    if error and sys.stderr is not None:  # None when fd 2 was closed at start-up
        with suppress(OSError):  # a stderr that cannot be written loses the line
            print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
