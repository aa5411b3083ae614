"""Causal structure toolkit.

Causal ordering of simultaneous structural equation systems, conversion of
discrete belief networks into equivalent threshold-equation systems with
latent uniform variables, triangularization of acyclic systems, and
structural-change (intervention) analysis.

Each public name is read from its home module on use, and that module is
imported on the first such read, so ``import causalstruct`` loads none of
them.  The read is not cached here: ``causalstruct.x`` is always the home
module's current ``x``, also while a caller has replaced it there.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by its home module.
_HOMES = {
    name: f"causalstruct.{module}"
    for module, names in {
        "bbn": (
            "Bbn",
            "BbnNode",
            "bbn_from_dict",
            "bbn_to_dict",
            "bbn_to_dot",
            "joint_probability",
            "load_bbn",
            "marginals",
            "save_bbn",
            "validate",
        ),
        "errors": (
            "CycleError",
            "CyclicStructureError",
            "FormatError",
            "InvalidBbnError",
            "NotSelfContainedError",
        ),
        "intervention": (
            "StructuralChange",
            "affected_variables",
            "apply_change",
            "compare_marginals",
            "intervene_bbn",
        ),
        "ordering": ("CausalOrdering", "Cluster", "causal_ordering", "ordering_to_dot"),
        "sem": (
            "ThresholdEquation",
            "ThresholdEquationSystem",
            "bbn_to_sem",
            "check_equivalence",
            "evaluate",
            "load_sem",
            "roundtrip_check",
            "sample",
            "sem_from_dict",
            "sem_joint",
            "sem_structure",
            "sem_to_dict",
        ),
        "structure": (
            "EquationSubset",
            "StructureMatrix",
            "SystemReport",
            "check_system",
            "load_system",
            "system_from_dict",
        ),
        "triangular": ("Triangularization", "is_triangularizable", "triangularize"),
    }.items()
    for name in names
}
# The library modules, each also an attribute of the package.
_MODULES = {home.rpartition(".")[2] for home in _HOMES.values()} | {"dotutil", "graphs", "matching"}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is not None:
        return getattr(importlib.import_module(home), name)
    if name in _MODULES:
        return importlib.import_module(f"causalstruct.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
