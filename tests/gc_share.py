"""Replay the ``structure`` benchmark's library operations and time the cyclic collector.

Builds the operations as ``bench/run.py --workload structure`` builds them
(``bench.harness.set_up`` with ``bench/workloads.json``'s parameters), then
runs each library operation and its check in the benchmark's order, for a
number of passes, keeping one record per operation as the benchmark's loop
does.  ``gc.callbacks`` time every collection that starts inside an
operation's call.  Prints, per operation kind (the label's first word):

- ``wall_ms``: wall time of the calls, per pass;
- ``check_ms``: wall time of their checks, which the benchmark does not
  time: fields an operation's result reads on first use are built there;
- ``gc_ms``: time spent inside collections during those calls, per pass;
- ``full``: generation-2 collections started during those calls, per pass.

Pass 1 is shown apart from the later passes, whose figures are averaged:
what an operation keeps on its input (a verdict, an ordering's analysis)
is built in pass 1 and read in the later ones, as in the benchmark, which
repeats its pass.  The CLI operations are not run.  Nothing under
``bench/`` is changed.

    python tests/gc_share.py                   # seed 9901, 3 passes
    python tests/gc_share.py --seed 8801 --passes 5
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: import the package and the benchmark from the checkout
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import harness  # noqa: E402


class Collections:
    """Seconds spent in collections and generation-2 collections, summed while ``on``."""

    def __init__(self):
        self.on = False
        self.seconds = 0.0
        self.full = 0
        self.started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.perf_counter()
        elif self.on:
            self.seconds += time.perf_counter() - self.started
            self.full += info["generation"] == 2


def replay(seed: int, passes: int, workdir: Path) -> list[dict[str, list[float]]]:
    """Per pass, per operation kind: [call seconds, check seconds, collection
    seconds, full collections]."""
    ops, _ = harness.set_up("structure", seed, workdir, harness.Runner())
    ops = [op for op in ops if op.kind == "lib"]
    seen = Collections()
    runs = []
    kept = []  # one record per operation, as the benchmark's loop keeps its samples
    gc.callbacks.append(seen)
    try:
        for _ in range(passes):
            totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
            for op in ops:
                seconds, full = seen.seconds, seen.full
                seen.on = True
                start = time.perf_counter()
                result = op.call()
                wall = time.perf_counter() - start
                seen.on = False
                op.check(result)
                total = totals[op.label.split()[0]]
                total[0] += wall
                total[1] += time.perf_counter() - start - wall
                total[2] += seen.seconds - seconds
                total[3] += seen.full - full
                kept.append((op, wall))
            runs.append(totals)
    finally:
        gc.callbacks.remove(seen)
    return runs


def table(runs: list[dict[str, list[float]]]) -> list[str]:
    """Per-pass means of the runs' figures, one line per kind and one for all."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0])
    for run in runs:
        for kind, figures in run.items():
            totals[kind] = [a + b for a, b in zip(totals[kind], figures)]
    rows = sorted(totals.items()) + [("all", [sum(t[k] for t in totals.values()) for k in range(4)])]
    p = len(runs)
    return [
        f"{kind:<16}{1e3 * wall / p:>10.1f}{1e3 * check / p:>10.1f}{1e3 * in_gc / p:>10.1f}{full / p:>8.2f}"
        for kind, (wall, check, in_gc, full) in rows
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9901)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        runs = replay(args.seed, args.passes, Path(workdir))
    print(f"structure, seed {args.seed}, {args.passes} passes, python {sys.version.split()[0]}; per pass:")
    header = f"{'kind':<16}{'wall_ms':>10}{'check_ms':>10}{'gc_ms':>10}{'full':>8}"
    for title, part in (("pass 1", runs[:1]), (f"passes 2-{args.passes}, mean", runs[1:])):
        if part:
            print(f"{title}:", header, *table(part), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
