"""Per-layer benchmark metrics name functions that still exist.

A metric ``<module>.<function>.(self_s|calls|errors)`` reads the spans the
benchmark's tracer records around a public function defined in
``causalstruct.<module>``; once that function is renamed or deleted the
metric silently reads 0.  ``STALE`` lists the names the benchmark still
carries for deleted functions, until the benchmark itself drops them.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"
FUNCTION_METRIC = re.compile(r"(\w+)\.(\w+)\.(?:self_s|calls|errors)")
STALE = frozenset(
    {"graphs.condensation_edges", "graphs.longest_path_levels", "matching.hall_violator"}
)


def function_names() -> set[str]:
    specs = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    matches = (FUNCTION_METRIC.fullmatch(spec["name"]) for spec in specs)
    return {f"{m[1]}.{m[2]}" for m in matches if m}


def resolves(name: str) -> bool:
    """The tracer's rule: a public function defined in that very module."""
    module_name, attr = name.split(".")
    try:
        module = importlib.import_module(f"causalstruct.{module_name}")
    except ImportError:
        return False
    fn = getattr(module, attr, None)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    )


@pytest.mark.parametrize("name", sorted(function_names() - STALE))
def test_metric_names_a_traced_function(name):
    assert resolves(name)


@pytest.mark.parametrize("name", sorted(STALE))
def test_stale_name_is_still_listed_and_still_gone(name):
    assert name in function_names()
    assert not resolves(name)
