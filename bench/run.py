"""Benchmark of causalstruct against the source tree next to it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Workloads are ``structure``, ``networks`` and ``sample`` (see
``bench/workloads.json``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when ``src/`` holds
no ``causalstruct`` package.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("structure", "networks", "sample")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "causalstruct" / "__init__.py").is_file():
        print(f"error: no causalstruct package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench import harness

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        runner = harness.Runner()
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-{args.seed}.jsonl"
            result = harness.traced(args.workload, args.seed, workdir, runner, trace_path)
        else:
            result = harness.end_to_end(args.workload, args.seed, args.seconds, workdir, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(result["lines"]))
    print(json.dumps(result["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
