"""The package namespace: each public name and library module resolves on
first use, the names are listed, and a name it does not have is refused."""

import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import causalstruct

SRC = Path(__file__).parent.parent / "src"
# Every name that ``vars(causalstruct)`` held when the package imported all
# of its modules eagerly: each still resolves.
EAGER_NAMES = [
    "Bbn", "BbnNode", "CausalOrdering", "Cluster", "CycleError", "CyclicStructureError",
    "EquationSubset", "FormatError", "InvalidBbnError", "NotSelfContainedError",
    "StructuralChange", "StructureMatrix", "SystemReport", "ThresholdEquation",
    "ThresholdEquationSystem", "Triangularization", "__all__", "__builtins__", "__cached__",
    "__doc__", "__file__", "__loader__", "__name__", "__package__", "__path__", "__spec__",
    "__version__", "affected_variables", "apply_change", "bbn", "bbn_from_dict", "bbn_to_dict",
    "bbn_to_dot", "bbn_to_sem", "causal_ordering", "check_equivalence", "check_system",
    "compare_marginals", "dotutil", "errors", "evaluate", "graphs", "intervene_bbn",
    "intervention", "is_triangularizable", "joint_probability", "load_bbn", "load_sem",
    "load_system", "marginals", "matching", "ordering", "ordering_to_dot", "roundtrip_check",
    "sample", "save_bbn", "sem", "sem_from_dict", "sem_joint", "sem_structure", "sem_to_dict",
    "structure", "system_from_dict", "triangular", "triangularize", "validate",
]
# Each library module before every module that imports it, so each is first
# read through the package before an import binds it there.
LIBRARY_MODULES = ["dotutil", "matching", "errors", "graphs", "structure", "triangular", "ordering",
                   "bbn", "sem", "intervention"]
# One name homed in each module that has public names, and one library module.
FIRST_READS = ["Bbn", "FormatError", "apply_change", "causal_ordering", "sample", "check_system",
               "triangularize", "graphs"]


def _fresh(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports only the package."""
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", textwrap.dedent(probe)],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_dir_lists_every_public_name():
    assert set(causalstruct.__all__) <= set(dir(causalstruct))


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError) as caught:
        causalstruct.nope
    assert str(caught.value) == "module 'causalstruct' has no attribute 'nope'"


def test_a_library_module_imports_from_the_package():
    from causalstruct import graphs

    assert graphs is importlib.import_module("causalstruct.graphs")


def test_every_eager_name_still_resolves():
    probe = f"""
        import causalstruct, importlib
        for name in {LIBRARY_MODULES!r}:
            assert getattr(causalstruct, name) is importlib.import_module("causalstruct." + name), name
        for name in {EAGER_NAMES!r}:
            getattr(causalstruct, name)
        print(causalstruct.sem.CHUNK == importlib.import_module("causalstruct.sem").CHUNK)
    """
    assert _fresh(probe) == "True\n"


def test_a_replaced_function_is_read_from_its_home(monkeypatch):
    sem = importlib.import_module("causalstruct.sem")
    monkeypatch.setattr(sem, "sample", len)
    assert causalstruct.sample is len
    monkeypatch.undo()
    assert causalstruct.sample is sem.sample


@pytest.mark.parametrize("run", range(5))
def test_concurrent_first_reads_resolve(run):
    """Eight threads released together each read every name, each starting
    at its own, so most reads meet a module that another thread is still
    importing.  A short switch interval makes them interleave often."""
    probe = f"""
        import sys, threading
        import causalstruct
        sys.setswitchinterval(1e-6)
        names = {FIRST_READS!r}
        barrier = threading.Barrier(len(names), timeout=30)
        failed = []

        def read(k):
            barrier.wait()
            for name in names[k:] + names[:k]:
                try:
                    getattr(causalstruct, name)
                except Exception as exc:
                    failed.append(f"{{name}}: {{exc!r}}")

        threads = [threading.Thread(target=read, args=(k,)) for k in range(len(names))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        print(failed + [thread.name for thread in threads if thread.is_alive()])
    """
    assert _fresh(probe) == "[]\n"
