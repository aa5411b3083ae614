"""Set-up, the closed measuring loop, the traced run, and the metrics.

One client runs the operations one after another: each CLI process and
each library call starts only when the previous one has finished.  A run
repeats the workload's pass of operations ``round(seconds / pass_seconds)``
times, so its work, and with it every percentile rank, depends only on the
seed and ``--seconds``; ``pass_seconds`` is the pass's nominal length on the
reference machine recorded in ``workloads.json``.

Times are scaled to the reference machine's speed.  The CPU speed of a
shared container drifts by tens of percent over seconds as neighbouring
load comes and goes, more than any regression bound the benchmark could
keep.  A fixed calibration loop is timed between operations, and each wall
time is multiplied by ``reference_calibration_s`` over the mean of the
calibrations just before and just after it.  The unscaled medians are
printed alongside.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import causalstruct
import causalstruct.cli

from bench import checks, workloads
from bench.tracing import Tracer
from bench.workloads import CliResult, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# What the installed ``causalstruct`` console script runs.
ENTRY = "import sys; from causalstruct.cli import main; sys.exit(main())"


@dataclass
class Sample:
    op: Op
    seconds: float
    outcome: str  # "ok"; "error": raised, crashed or timed out; "wrong": bad answer or exit code
    detail: str = ""


def calibration_loop() -> int:
    """Fixed pure-Python work: build a dict, sort its items, sum products."""
    table = {}
    for i in range(15000):
        table[i * 7919 % 100003] = i
    total = 0
    for key, value in sorted(table.items(), key=lambda item: item[1] ^ 0x5555):
        total += key * value
    return total


class SpeedGauge:
    """Times the calibration loop between operations to track machine speed."""

    def __init__(self):
        self.reference = MANIFEST["reference_calibration_s"]
        self.points: list[tuple[int, float]] = []  # (index of the next sample, seconds)
        self.last = -float("inf")

    @staticmethod
    def measure() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def read(self, index: int) -> None:
        self.points.append((index, self.measure()))
        self.last = time.perf_counter()

    def read_if_due(self, index: int) -> None:
        if time.perf_counter() - self.last >= MANIFEST["calibration_interval_s"]:
            self.read(index)

    def scales(self, count: int) -> list[float]:
        """Per sample: reference over the mean calibration bracketing it."""
        result = []
        k = 0
        for i in range(count):
            while k + 1 < len(self.points) and self.points[k + 1][0] <= i:
                k += 1
            before = self.points[k][1]
            after = self.points[k + 1][1] if k + 1 < len(self.points) else before
            result.append(2 * self.reference / (before + after))
        return result


class Runner:
    """Runs operations: CLI ones as child processes or, in-process, through cli.main."""

    def __init__(self):
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
        self.timeout = MANIFEST["cli_timeout_s"]

    def subprocess(self, argv) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=self.timeout,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def in_process(argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = causalstruct.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out.getvalue(), err.getvalue())

    def execute(self, op: Op, in_process: bool = False) -> Sample:
        start = time.perf_counter()
        try:
            if op.kind == "lib":
                result = op.call()
            elif in_process:
                result = self.in_process(op.argv)
            else:
                result = self.subprocess(op.argv)
        except Exception as exc:  # the operation failed; the loop goes on
            return Sample(op, time.perf_counter() - start, "error", type(exc).__name__)
        seconds = time.perf_counter() - start
        if op.kind == "cli" and checks.TRACEBACK in result.stderr:
            return Sample(op, seconds, "error", result.stderr.strip().splitlines()[-1][:80])
        try:
            op.check(result)
        except Exception as exc:  # includes malformed output the parsers choke on
            return Sample(op, seconds, "wrong", f"{type(exc).__name__}: {exc}"[:200])
        return Sample(op, seconds, "ok")

    def version_seconds(self) -> float:
        """Wall time of ``causalstruct --version``: interpreter and import start-up."""
        start = time.perf_counter()
        result = self.subprocess(["--version"])
        seconds = time.perf_counter() - start
        if result.code != 0 or result.stdout.strip() != causalstruct.__version__:
            raise RuntimeError(f"causalstruct --version failed: {result.stderr.strip()}")
        return seconds


def set_up(name: str, seed: int, workdir: Path, runner: Runner) -> tuple[list[Op], float]:
    """Generate the inputs, write the files, load them, and warm up the CLI once."""
    start = time.perf_counter()
    ops = workloads.BUILDERS[name](MANIFEST["workloads"][name]["params"], seed, workdir)
    runner.version_seconds()
    return ops, time.perf_counter() - start


def passes_for(name: str, seconds: int) -> int:
    return max(1, round(seconds / MANIFEST["workloads"][name]["pass_seconds"]))


def ranked(times: list[tuple[float, bool]], penalty: float) -> list[float]:
    """Wall times of (seconds, ok) pairs, ascending; a failure ranks above every success.

    A failure misses every latency limit, so it enters at ``penalty``, the
    run's whole measured time, which no success can exceed.
    """
    ok = sorted(seconds for seconds, good in times if good)
    return ok + [penalty] * (len(times) - len(ok))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with 10 beyond.

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead, with the number beyond it, zero.
    """
    n = len(values)
    if n < 20:
        return values[-1], 100.0, 0
    return values[n - 11], 100.0 * (n - 10) / n, 10


def environment() -> str:
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"load {MANIFEST['load']}"
    )


def end_to_end(name: str, seed: int, seconds: int, workdir: Path, runner: Runner) -> dict:
    gauge = SpeedGauge()
    setups = []
    raw_setups = []
    for _ in range(MANIFEST["setup_repeats"]):
        before = gauge.measure()
        ops, setup_s = set_up(name, seed, workdir, runner)
        raw_setups.append(setup_s)
        setups.append(setup_s * 2 * gauge.reference / (before + gauge.measure()))

    passes = passes_for(name, seconds)
    samples: list[Sample] = []
    started = time.perf_counter()
    gauge.read(0)
    for _ in range(passes):
        for op in ops:
            gauge.read_if_due(len(samples))
            samples.append(runner.execute(op))
        if time.perf_counter() - started > MANIFEST["max_measure_s"]:
            break
    gauge.read(len(samples))
    scales = gauge.scales(len(samples))
    scaled = [s.seconds * k for s, k in zip(samples, scales)]
    measured = sum(scaled)

    def ranked_times(kind: str, seconds: list[float]) -> list[float]:
        return ranked(
            [(t, s.outcome == "ok") for s, t in zip(samples, seconds) if s.op.kind == kind],
            measured,
        )

    cli = ranked_times("cli", scaled)
    lib = ranked_times("lib", scaled)
    lib_seconds = sum(t for s, t in zip(samples, scaled) if s.op.kind == "lib")
    credit = sum(s.op.credit for s in samples if s.op.kind == "lib" and s.outcome == "ok")
    failed = sum(s.outcome != "ok" for s in samples)
    tail_s, tail_pct, beyond = tail(cli)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    metrics = {
        "setup_s": statistics.median(setups),
        "cli_p50_s": statistics.median(cli),
        "cli_tail_s": tail_s,
        "lib_p50_s": statistics.median(lib),
        "work_per_s": credit / lib_seconds,
        "ok_share": 1 - failed / len(samples),
        "peak_rss_mb": peak_kb / 1024,
    }
    raw = [s.seconds for s in samples]
    spec = MANIFEST["workloads"][name]
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled {statistics.median(raw_setups):.4g} s",
        "cli_p50_s": f"{len(cli)} CLI processes; unscaled {statistics.median(ranked_times('cli', raw)):.4g} s",
        "cli_tail_s": f"p{tail_pct:.1f}, {beyond} of {len(cli)} samples beyond",
        "lib_p50_s": f"{len(lib)} library operations; unscaled {statistics.median(ranked_times('lib', raw)):.4g} s",
        "work_per_s": f"{spec['work_unit']} verified per second of library time",
        "ok_share": f"fail_share {failed / len(samples):.4f}: {failed} of {len(samples)} operations failed",
        "peak_rss_mb": "largest resident set of any CLI child",
    }
    lines = [
        f"workload {name}, seed {seed}, {passes} passes of {len(ops)} operations; {environment()}",
        f"times in reference seconds: median scale {statistics.median(scales):.3f} "
        f"from {len(gauge.points)} calibrations",
    ]
    lines += _metric_lines(metrics, "end_to_end", notes)
    lines += _failure_lines(samples)
    return _result(lines, samples, metrics, "end_to_end")


def traced(name: str, seed: int, workdir: Path, runner: Runner, trace_path: Path) -> dict:
    """One untraced and one traced in-process pass over the same operations.

    CLI operations run through ``cli.main`` in this process, with output
    captured, so their layers are seen.  The difference between the two
    passes' wall times is the tracing overhead.
    """
    ops, _ = set_up(name, seed, workdir, runner)
    start = time.perf_counter()
    for op in ops:
        runner.execute(op, in_process=True)
    untraced_s = time.perf_counter() - start

    samples = []
    with Tracer() as tracer:
        start = time.perf_counter()
        for index, op in enumerate(ops):
            tracer.op = index
            samples.append(runner.execute(op, in_process=True))
        traced_s = time.perf_counter() - start
    tracer.write(trace_path)
    startup_s = statistics.median(runner.version_seconds() for _ in range(3))

    metrics = layer_metrics(tracer, len(ops), traced_s, untraced_s, startup_s)
    lines = [f"workload {name}, seed {seed}, traced pass of {len(ops)} operations; {environment()}"]
    lines += _metric_lines(metrics, "per_layer", {})
    lines.append(f"spans written to {trace_path}")
    lines += _failure_lines(samples)
    return _result(lines, samples, metrics, "per_layer")


COUNTS = {"ordering.clusters", "ordering.max_degree", "ordering.max_order", "sem.draws", "sem.cpt_entries"}


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s: float, startup_s: float):
    self_s, calls, errors = tracer.layer_totals()
    counts = tracer.counts
    derived = {
        "matching.calls_per_op": calls["matching.maximum_matching"] / ops,
        "bbn.validate.calls_per_op": calls["bbn.validate"] / ops,
        "sem.configs_enumerated": counts["sem.sem_joint"],
        "sem.configs_per_cpt_entry": counts["sem.sem_joint"] / max(counts["sem.cpt_entries"], 1),
        "cli.startup_s": startup_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.ops": ops,
        "trace.spans": len(tracer.spans),
    }
    metrics = {}
    for spec in BENCHMARK["per_layer"]:
        metric = spec["name"]
        function, _, field = metric.rpartition(".")
        if metric in derived:
            metrics[metric] = derived[metric]
        elif metric in COUNTS:
            metrics[metric] = counts[metric]
        elif field == "self_s":
            metrics[metric] = self_s.get(function, 0.0)
        elif field == "calls":
            metrics[metric] = calls[function] or counts[function]
        elif field == "errors":
            metrics[metric] = errors[function]
        else:
            raise KeyError(f"no rule measures per-layer metric {metric!r}")
    return metrics


def _metric_lines(metrics: dict, group: str, notes: dict) -> list[str]:
    units = {spec["name"]: spec["unit"] for spec in BENCHMARK[group]}
    return [
        f"  {metric:<40} {value:>14.6g} {units[metric]:<14} {notes.get(metric, '')}".rstrip()
        for metric, value in metrics.items()
    ]


def _failure_lines(samples: list[Sample]) -> list[str]:
    seen: dict[tuple[str, str], list[str]] = {}
    for s in samples:
        if s.outcome != "ok":
            seen.setdefault((s.outcome, s.detail), []).append(s.op.label)
    return [
        f"  {outcome}: {detail} x{len(labels)} ({', '.join(sorted(set(labels)))})"
        for (outcome, detail), labels in seen.items()
    ]


def _result(lines: list[str], samples: list[Sample], metrics: dict, group: str) -> dict:
    units = {spec["name"]: spec["unit"] for spec in BENCHMARK[group]}
    return {
        "lines": lines,
        "json": {
            "correct": not any(s.outcome == "wrong" for s in samples),
            "attempted": len(samples),
            "failed": sum(s.outcome != "ok" for s in samples),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }
