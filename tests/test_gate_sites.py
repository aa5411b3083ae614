"""Each refusal error has one raise site, files are written at one site, and
the CLI prints at two."""

import ast
from pathlib import Path

import pytest

import causalstruct

SOURCES = sorted(Path(causalstruct.__file__).parent.glob("*.py"))
GATES = {
    "NotSelfContainedError": "structure._require_self_contained",
    "InvalidBbnError": "bbn._require_valid",
    "CycleError": "graphs.topological_order",
}
WRITER = "structure._write_text"
PRINTERS = {"cli.main", "cli._Parser.error"}
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


def test_only_main_and_the_parser_print():
    assert set(_sites(_OutputSites)) == PRINTERS


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
