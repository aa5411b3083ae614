"""Replay the ``structure`` benchmark's library operations and time the cyclic collector.

Builds the operations as ``bench/run.py --workload structure`` builds them
(``bench.harness.set_up`` with ``bench/workloads.json``'s parameters), then
runs each library operation and its check in the benchmark's order, for a
number of passes, keeping one record per operation as the benchmark's loop
does.  ``gc.callbacks`` time every collection that starts inside an
operation's call.  Prints, per operation kind (the label's first word):

- ``wall_ms``: wall time of the calls, per pass;
- ``gc_ms``: time spent inside collections during those calls, per pass;
- ``full``: generation-2 collections started during those calls, per pass.

The CLI operations are not run.  Nothing under ``bench/`` is changed.

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


def replay(seed: int, passes: int, workdir: Path) -> dict[str, list[float]]:
    """Per operation kind: [wall seconds, collection seconds, full collections], summed over passes."""
    ops, _ = harness.set_up("structure", seed, workdir, harness.Runner())
    ops = [op for op in ops if op.kind == "lib"]
    seen = Collections()
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    kept = []  # one record per operation, as the benchmark's loop keeps its samples
    gc.callbacks.append(seen)
    try:
        for _ in range(passes):
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
                total[1] += seen.seconds - seconds
                total[2] += seen.full - full
                kept.append((op, wall))
    finally:
        gc.callbacks.remove(seen)
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=9901)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        totals = replay(args.seed, args.passes, Path(workdir))
    print(f"structure, seed {args.seed}, {args.passes} passes, python {sys.version.split()[0]}; per pass:")
    print(f"{'kind':<16}{'wall_ms':>10}{'gc_ms':>10}{'full':>8}")
    rows = sorted(totals.items()) + [("all", [sum(t[k] for t in totals.values()) for k in range(3)])]
    for kind, (wall, in_gc, full) in rows:
        p = args.passes
        print(f"{kind:<16}{1e3 * wall / p:>10.1f}{1e3 * in_gc / p:>10.1f}{full / p:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
