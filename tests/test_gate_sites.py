"""Each refusal error has one raise site: the gate every operation goes through."""

import ast
from pathlib import Path

import causalstruct

SOURCES = sorted(Path(causalstruct.__file__).parent.glob("*.py"))
GATES = {
    "NotSelfContainedError": "structure._require_self_contained",
    "InvalidBbnError": "bbn._require_valid",
}


class _RaiseSites(ast.NodeVisitor):
    """``(exception name, module.function)`` for each ``raise Name(...)`` in a module."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            self.sites.append((exc.id, ".".join(self.scope)))


def test_each_gate_error_is_raised_only_by_its_gate():
    sites = []
    for path in SOURCES:
        visitor = _RaiseSites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += visitor.sites
    for error, gate in GATES.items():
        assert [where for name, where in sites if name == error] == [gate]
