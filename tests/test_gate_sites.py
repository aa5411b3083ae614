"""Each refusal error has one raise site, files are written at one site, the
CLI prints at one, no module imports a name it never uses, every public name
has a user or a stated reason to be public, and only the listed functions
call themselves."""

import ast
import re
from pathlib import Path

import pytest

import causalstruct

SOURCES = sorted(Path(causalstruct.__file__).parent.glob("*.py"))
REPO = Path(__file__).parent.parent
GATES = {
    "NotSelfContainedError": "structure._require_self_contained",
    "InvalidBbnError": "bbn._require_valid",
    "CycleError": "graphs.topological_order",
}
WRITER = "structure._write_text"
PRINTERS = {"cli.main"}
# No search recurses on input depth: every graph walk keeps its own stack.
SELF_CALLERS: set[str] = set()
# (module, name) imported and never used: bench/test_bench.py's
# test_tracer_restores_every_binding patches sem.joint_probability.
UNUSED_IMPORTS = {("sem", "joint_probability")}
# Public names that no other module, no benchmark script and no README
# example reads, each with the reason it stays public.
LIBRARY_ONLY = {
    "EquationSubset": "type of check_system's violating subset",
    "SystemReport": "type of check_system's result",
    "ThresholdEquation": "type of a converted system's equations",
    "ThresholdEquationSystem": "type of bbn_to_sem's result",
    "Triangularization": "type of triangularize's result",
    "bbn_to_dict": "the document save_bbn writes",
}
# Flags that leave a file as it is; os.open with any other flag writes.
READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW"}


class _Scoped(ast.NodeVisitor):
    """Tracks the ``module.function`` a node sits in."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites: list = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef


class _RaiseSites(_Scoped):
    """``(exception name, module.function)`` for each ``raise Name(...)`` in a module."""

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            self.sites.append((exc.id, ".".join(self.scope)))


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes``, or an open to write."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    os_open = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    # open(file, mode), os.open(path, flags), Path.open(mode)
    position = 1 if os_open or isinstance(func, ast.Name) else 0
    keyword = "flags" if os_open else "mode"
    given = [k.value for k in call.keywords if k.arg == keyword] + call.args[position : position + 1]
    if not given:
        return os_open  # os.open needs flags; open's default mode is "r"
    if os_open:  # read-only when built from read-only flag names alone
        parts = list(ast.walk(given[0]))
        names = {n.id for n in parts if isinstance(n, ast.Name)}
        names |= {n.attr for n in parts if isinstance(n, ast.Attribute)}
        return any(isinstance(n, ast.Constant) for n in parts) or not names <= READ_FLAGS
    mode = given[0]
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wxa+"))


class _WriteSites(_Scoped):
    """``module.function`` for each call in a module that writes a file."""

    def visit_Call(self, node):
        if _writes(node):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


class _SelfCalls(_Scoped):
    """``module.function`` for each function that calls itself by its bare name."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == self.scope[-1]:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


class _OutputSites(_Scoped):
    """``module.function`` for each ``print`` call and each use of ``sys.stdout`` or ``sys.stderr``."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr in ("stdout", "stderr") and getattr(node.value, "id", None) == "sys":
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def _unused_imports(source: str) -> set:
    """Names bound by an import in ``source`` and never read; ``__future__`` aside."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(source: str) -> set:
    """Every name ``source`` reads as a ``Name`` or as an ``Attribute``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _sites(visitor_class) -> list:
    sites = []
    for path in SOURCES:
        visitor = visitor_class(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += visitor.sites
    return sites


def test_each_gate_error_is_raised_only_by_its_gate():
    sites = _sites(_RaiseSites)
    for error, gate in GATES.items():
        assert [where for name, where in sites if name == error] == [gate]


def test_only_the_writer_writes_a_file():
    sites = _sites(_WriteSites)
    assert sites and set(sites) == {WRITER}


def test_only_main_prints():
    assert set(_sites(_OutputSites)) == PRINTERS


def test_only_the_listed_functions_call_themselves():
    """No new recursion on input depth: each function calling itself by bare name
    is listed.  Mutual recursion, and a call through an attribute, are not caught."""
    assert set(_sites(_SelfCalls)) == SELF_CALLERS


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (path.stem, name)
        for path in SOURCES
        if path.name != "__init__.py"  # it imports to re-export
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    }
    assert unused == UNUSED_IMPORTS


def test_every_public_name_has_a_user_or_a_reason():
    in_module = {path.stem: _read_names(path.read_text(encoding="utf-8")) for path in SOURCES}
    outside = set()
    for path in sorted((REPO / "bench").glob("*.py")):
        outside |= _read_names(path.read_text(encoding="utf-8"))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        outside |= _read_names(block)

    def reached(name):
        home = getattr(causalstruct, name).__module__.rpartition(".")[2]
        return name in outside or any(
            name in names for module, names in in_module.items() if module != home
        )

    unreached = {name for name in causalstruct.__all__ if not reached(name)}
    assert unreached - LIBRARY_ONLY.keys() == set(), "public names with no user and no reason"
    assert LIBRARY_ONLY.keys() - unreached == set(), "reasons kept for names that have a user"


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\nos.getcwd()", set()),
        ("import os.path\nos.path.join()", set()),
        ("from a import b as c\nc()", set()),
        ("from a import b, c\nb()", {"c"}),
        ("import a as b\na()", {"b"}),
        ("from __future__ import annotations", set()),
    ],
)
def test_unused_import_detection(source, unused):
    assert _unused_imports(source) == unused


@pytest.mark.parametrize(
    "source, writes",
    [
        ('Path(p).write_text(t, encoding="utf-8")', True),
        ("p.write_bytes(b)", True),
        ('open(p, "w")', True),
        ('open(p, mode="ab")', True),
        ('open(p, "r+")', True),
        ("open(p, m)", True),
        ('p.open("w")', True),
        ("os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)", True),
        ("os.open(p, os.O_RDWR)", True),
        ("os.open(p, flags)", True),
        ("os.open(p, 1)", True),
        ('open(p, encoding="utf-8")', False),
        ('open(p, "rb")', False),
        ("p.open()", False),
        ("os.open(p, os.O_RDONLY | os.O_CLOEXEC)", False),
        ("p.read_text()", False),
    ],
)
def test_write_detection(source, writes):
    assert _writes(ast.parse(source, mode="eval").body) is writes
