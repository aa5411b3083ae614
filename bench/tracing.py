"""Spans around the calls into each ``causalstruct`` module, for the traced run.

``Tracer`` replaces every public function of every module with a wrapper,
in the defining module and wherever another module bound it with
``from .x import y``, so calls between modules are seen too.  The program
itself is not changed; ``uninstall`` puts the originals back.  The untraced
run never creates a tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = (
    "bbn",
    "cli",
    "dotutil",
    "graphs",
    "intervention",
    "matching",
    "ordering",
    "sem",
    "structure",
    "triangular",
)

# Leaf functions called once per enumerated configuration: a span each
# would dwarf the work, so they are only counted.
COUNT_ONLY = frozenset({"bbn.joint_probability", "sem.sem_joint", "dotutil.dot_id"})

# The mixed-radix helper runs once per factor of every configuration; even
# counting it would cost more than its work, and no metric needs it.
# Argument parsing belongs to cli.main's own time.
UNWRAPPED = frozenset({"bbn.config_index", "cli.build_parser"})


def _ordering_counts(counts, args, result):
    counts["ordering.clusters"] += len(result.clusters)
    for cluster in result.clusters:
        counts["ordering.max_degree"] = max(counts["ordering.max_degree"], cluster.degree)
        counts["ordering.max_order"] = max(counts["ordering.max_order"], cluster.order)


def _sample_counts(counts, args, result):
    counts["sem.draws"] += sum(result.values())


def _equivalence_counts(counts, args, result):
    counts["sem.cpt_entries"] += sum(len(node.cpt) * node.outcome_count for node in args[0].nodes)


# Counts read off a call's arguments and result, outside its span.
RESULT_COUNTS = {
    "ordering.causal_ordering": _ordering_counts,
    "sem.sample": _sample_counts,
    "sem.check_equivalence": _equivalence_counts,
}


class Tracer:
    """Records (name, start, end, parent, op, ok) spans and call counts in memory."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [importlib.import_module(f"causalstruct.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{short}.{attr}"
                if fn.__module__ != module.__name__ or name in UNWRAPPED:
                    continue
                wrappers[fn] = self._counter(fn, name) if name in COUNT_ONLY else self._span(fn, name)
        for module in [importlib.import_module("causalstruct"), *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, ok)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def layer_totals(self) -> tuple[dict[str, float], Counter, Counter]:
        """Self seconds, calls and errors per function, derived from the spans.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        errors: Counter = Counter()
        for (name, start, end, parent, op, ok), inner in zip(self.spans, children):
            self_s[name] += end - start - inner
            calls[name] += 1
            errors[name] += not ok
        return self_s, calls, errors

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, ok in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op, "ok": ok}
                handle.write(json.dumps(record) + "\n")
