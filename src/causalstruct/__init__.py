"""Causal structure toolkit.

Causal ordering of simultaneous structural equation systems, conversion of
discrete belief networks into equivalent threshold-equation systems with
latent uniform variables, triangularization of acyclic systems, and
structural-change (intervention) analysis.
"""

from .bbn import (
    Bbn,
    BbnNode,
    bbn_from_dict,
    bbn_to_dict,
    bbn_to_dot,
    joint_probability,
    load_bbn,
    marginals,
    save_bbn,
    validate,
)
from .errors import (
    CycleError,
    CyclicStructureError,
    FormatError,
    InvalidBbnError,
    NotSelfContainedError,
)
from .intervention import (
    StructuralChange,
    affected_variables,
    apply_change,
    compare_marginals,
    intervene_bbn,
)
from .ordering import (
    CausalOrdering,
    Cluster,
    causal_ordering,
    ordering_to_dot,
)
from .sem import (
    ThresholdEquation,
    ThresholdEquationSystem,
    bbn_to_sem,
    check_equivalence,
    evaluate,
    load_sem,
    roundtrip_check,
    sample,
    sem_from_dict,
    sem_joint,
    sem_structure,
    sem_to_dict,
)
from .structure import (
    EquationSubset,
    StructureMatrix,
    SystemReport,
    check_system,
    load_system,
    system_from_dict,
)
from .triangular import Triangularization, is_triangularizable, triangularize

__version__ = "0.1.0"

__all__ = [
    "Bbn",
    "BbnNode",
    "CausalOrdering",
    "Cluster",
    "CycleError",
    "CyclicStructureError",
    "EquationSubset",
    "FormatError",
    "InvalidBbnError",
    "NotSelfContainedError",
    "StructuralChange",
    "StructureMatrix",
    "SystemReport",
    "ThresholdEquation",
    "ThresholdEquationSystem",
    "Triangularization",
    "affected_variables",
    "apply_change",
    "bbn_from_dict",
    "bbn_to_dict",
    "bbn_to_dot",
    "bbn_to_sem",
    "causal_ordering",
    "check_equivalence",
    "check_system",
    "compare_marginals",
    "evaluate",
    "intervene_bbn",
    "is_triangularizable",
    "joint_probability",
    "load_bbn",
    "load_sem",
    "load_system",
    "marginals",
    "ordering_to_dot",
    "roundtrip_check",
    "sample",
    "save_bbn",
    "sem_from_dict",
    "sem_joint",
    "sem_structure",
    "sem_to_dict",
    "system_from_dict",
    "triangularize",
    "validate",
]
