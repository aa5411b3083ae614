"""Each refusal error, shape refusal and naming refusal has one raise site,
files are written at one site, the CLI prints at one, a cut point's bucket
end is computed at one, an augmenting path is flipped at one, no module
imports a name it never uses, every public name
has a user or a stated reason to be public, no function reaches itself
through calls, records cache only the listed values, no source generates
code with ``exec``, ``eval`` or ``compile``, importing the CLI loads no
code-generation or introspection module, each command loads only the
package modules it runs, the built-in ``sum`` adds only integers, and a
record defines its own constructor only to check its fields."""

import ast
import graphlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import causalstruct
from causalstruct.cli import main

SOURCES = sorted(Path(causalstruct.__file__).parent.glob("*.py"))
REPO = Path(__file__).parent.parent
GATES = {
    "NotSelfContainedError": "structure._require_self_contained",
    "InvalidBbnError": "bbn._require_valid",
    "CycleError": "graphs.topological_order",
}
# Each rule the three file formats and their records share, by a fragment of
# its message: the exception it raises and the one function that raises it.
SHARED_RULES = {
    "must be a JSON object": ("FormatError", "structure._json_object"),
    "unknown keys in": ("FormatError", "structure._json_object"),
    "must be a list of strings": ("FormatError", "structure._json_strings"),
    "must be non-empty": ("ValueError", "structure._require_names"),
    "must be distinct": ("ValueError", "structure._require_names"),
}
WRITER = "structure._write_text"
# The one site of a threshold's bucket end 2**53 - int(c * 2**53): a latent
# 1 - m / 2**53 passes c exactly when m is below it.
BUCKET_END = "sem.ThresholdEquationSystem._lanes"
# The one search that flips an augmenting path, shared by the full matching
# and the one search that decides an edited system.
PATH_FLIP = "matching._augment"
PRINTERS = {"cli.main"}
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
# Each record's cached values, all derived plans, verdicts or witnesses: a
# lookup table such as a name index is a scan or a caller's local map instead.
CACHED = {
    "Bbn": {"_plan", "_report"},
    "StructureMatrix": {"_report"},
    "SystemReport": {"matching"},
    "ThresholdEquationSystem": {"evaluation_order", "_plan", "_steps", "_lanes"},
}
# Records with a constructor of their own that checks nothing, each with the
# reason it does not use the shared ``_Record.__init__``.
OWN_CONSTRUCTOR = {
    "Cluster": "causal_ordering builds one per cluster, 500 to 8000 per structure op; "
    "its own constructor takes 0.5 us against the shared one's 0.95 us",
}
# Flags that leave a file as it is; os.open with any other flag writes.
READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW"}
# Builtins that turn text into code.
CODE_BUILDERS = {"exec", "eval", "compile"}
# Each built-in ``sum`` call, by the function it sits in, and the integers
# it adds.  Floats are summed with ``math.fsum``: its correctly rounded total
# is the same on every interpreter, while the built-in's float total is
# compensated from Python 3.12 on.
INTEGER_SUMS = {"sem._lane_forward": "row ranks: each scaled stride times a parent's value column, kept as one integer"}
# Modules that every CLI process would pay to import and none needs: the
# dataclasses code generator and the inspect, ast and dis modules it loads.
START_UP_ABSENT = ("dataclasses", "inspect", "ast", "dis")
DATA = REPO / "tests" / "data"
# Per CLI command, the file it runs on and the package modules its process
# must not load.  ``sample`` runs on the threshold file of ``xy.json``, and
# ``intervene`` writes its edited network to a temporary file.
STRUCTURE_ONLY = {"bbn", "sem", "intervention", "ordering", "dotutil"}
NETWORK_ONLY = {"triangular", "intervention", "ordering", "matching", "dotutil"}
NOT_LOADED = {
    "check": ("seat_belts.json", STRUCTURE_ONLY),
    "triangularize": ("seat_belts.json", STRUCTURE_ONLY),
    "order": ("seat_belts.json", {"bbn", "sem", "intervention", "triangular"}),
    "verify": ("xy.json", NETWORK_ONLY),
    "to-sem": ("xy.json", NETWORK_ONLY),
    "sample": ("xy.sem.json", NETWORK_ONLY),
    "intervene": ("xy.json", {"ordering", "matching", "dotutil", "triangular", "sem"}),
}


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
    """``(exception name, module.function, text)`` for each ``raise Name(...)`` in
    a module, where ``text`` joins the string constants of its arguments."""

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            parts = [n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            self.sites.append((exc.id, ".".join(self.scope), "".join(parts)))


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


class _BareCalls(_Scoped):
    """Each def's dotted path, in ``defs``, and for each bare-name call the
    ``(caller, paths)`` its name could mean, first match wins: a def nested in
    an enclosing def, innermost first, one at module level, then the target
    of a ``from .x import y [as z]`` read earlier.  A class body encloses no
    name its methods can call bare."""

    def __init__(self, module: str):
        super().__init__(module)
        self.defs: set[str] = set()
        self.imported: dict[str, str] = {}
        self.lexical = [1]  # lengths of the scope prefixes that are the module or a def

    def visit_ImportFrom(self, node):
        if node.level == 1 and node.module:
            for alias in node.names:
                self.imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_FunctionDef(self, node):
        self.defs.add(".".join(self.scope + [node.name]))
        self.lexical.append(len(self.scope) + 1)
        super().visit_FunctionDef(node)
        self.lexical.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and len(self.scope) > 1:
            name = node.func.id
            paths = [".".join(self.scope[:k] + [name]) for k in reversed(self.lexical)]
            self.sites.append((".".join(self.scope), paths + [self.imported.get(name)]))
        self.generic_visit(node)


def _call_graph(sources: dict) -> dict:
    """Each caller in ``sources`` (module name -> text) mapped to the defs it
    calls by bare name, resolved within its module or through a relative import."""
    defs, sites = set(), []
    for module, text in sources.items():
        visitor = _BareCalls(module)
        visitor.visit(ast.parse(text))
        defs |= visitor.defs
        sites += visitor.sites
    calls: dict[str, set[str]] = {}
    for caller, paths in sites:
        callee = next((path for path in paths if path in defs), None)
        if callee:
            calls.setdefault(caller, set()).add(callee)
    return calls


def _cycle(calls: dict):
    """A cycle of ``calls`` as a list of defs, first repeated last, or None."""
    try:
        graphlib.TopologicalSorter(calls).prepare()
    except graphlib.CycleError as error:
        return error.args[1]
    return None


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


class _BucketEndSites(_Scoped):
    """``module.function`` for each ``2**53 - int(...)``."""

    def visit_BinOp(self, node):
        right = node.right
        if (
            isinstance(node.op, ast.Sub)
            and ast.unparse(node.left) == "2 ** 53"
            and isinstance(right, ast.Call)
            and getattr(right.func, "id", None) == "int"
        ):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


class _PathFlipSites(_Scoped):
    """``module.function`` for each swap ``a[i], b = b, a[i]``: the step of an
    augmenting path's flip that gives a row its new column and takes its old one."""

    def visit_Assign(self, node):
        target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Tuple)
            and isinstance(value, ast.Tuple)
            and any(isinstance(item, ast.Subscript) for item in target.elts)
            and [ast.unparse(item) for item in target.elts] == [ast.unparse(item) for item in reversed(value.elts)]
        ):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


class _SumSites(_Scoped):
    """``module.function`` for each call of the built-in ``sum`` by its bare name."""

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "sum":
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
        assert [where for name, where, _ in sites if name == error] == [gate]


def test_each_shared_rule_is_raised_only_by_its_helper():
    sites = _sites(_RaiseSites)
    for fragment, site in SHARED_RULES.items():
        assert [(name, where) for name, where, text in sites if fragment in text] == [site], fragment


def test_only_the_writer_writes_a_file():
    sites = _sites(_WriteSites)
    assert sites and set(sites) == {WRITER}


def test_only_main_prints():
    assert set(_sites(_OutputSites)) == PRINTERS


def test_each_bucket_end_is_computed_at_one_site():
    assert _sites(_BucketEndSites) == [BUCKET_END]


def test_an_augmenting_path_is_flipped_at_one_site():
    assert _sites(_PathFlipSites) == [PATH_FLIP]


def test_no_function_reaches_itself_through_calls():
    """No recursion on input depth: every graph walk keeps its own stack.  A
    call through an attribute, such as a method call, is not followed."""
    calls = _call_graph({path.stem: path.read_text(encoding="utf-8") for path in SOURCES})
    assert _cycle(calls) is None


def test_no_source_builds_code_from_text():
    calls = [
        (path.stem, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in CODE_BUILDERS
    ]
    assert calls == []


def _fresh(probe: str) -> list:
    """The words ``probe`` prints in a fresh interpreter.  Counted, not timed:
    ``-S`` keeps the site hooks of the interpreter's installation out, so only
    what the package imports is seen, and ``-B`` leaves no bytecode cache in
    ``src/`` to speed up later CLI runs."""
    env = {"PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _loaded_by(argv: list) -> set:
    """The package modules, by short name, that running ``argv`` through the CLI loads."""
    probe = f"""
        import contextlib, io, sys
        from causalstruct.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main({argv!r})
            except SystemExit as stop:
                code = stop.code
        print(code, *[m.partition(".")[2] or m for m in sys.modules if m.partition(".")[0] == "causalstruct"])
    """
    code, *modules = _fresh(textwrap.dedent(probe))
    assert code == "0"
    return set(modules)


def test_every_builtin_sum_adds_integers():
    assert sorted(_sites(_SumSites)) == sorted(INTEGER_SUMS)


def test_the_cli_imports_no_code_generator():
    probe = f"import sys, causalstruct.cli; print(*[m for m in {START_UP_ABSENT!r} if m in sys.modules])"
    assert _fresh(probe) == []


def test_importing_the_package_loads_no_module():
    probe = "import sys, causalstruct; print(*[m for m in sys.modules if m.startswith('causalstruct')])"
    assert _fresh(probe) == ["causalstruct"]


def test_the_version_loads_only_the_cli_and_its_errors():
    assert _loaded_by(["--version"]) == {"causalstruct", "cli", "errors"}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    name, absent = NOT_LOADED[command]
    path = DATA / name
    if command == "sample":
        path = tmp_path / name
        assert main(["to-sem", str(DATA / "xy.json"), "--out", str(path)]) == 0
    argv = [command, str(path)]
    if command == "intervene":
        argv += ["--node", "x", "--dist", "1,0", "--out", str(tmp_path / "out.json")]
    loaded = _loaded_by(argv)
    assert {"cli", "structure"} <= loaded
    assert loaded & absent == set()


def test_only_the_listed_values_are_cached():
    cached = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names = {
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    for d in item.decorator_list
                    if getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                }
                if names:
                    cached[node.name] = names
    assert cached == CACHED


def test_a_record_defines_its_constructor_only_to_check_its_fields():
    """A ``_Record`` subclass that only stores its fields uses the shared
    constructor; one that defines ``__init__`` raises in it or is listed."""
    unchecked = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and "_Record" in {getattr(b, "id", None) for b in node.bases}:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        if not any(isinstance(n, ast.Raise) for n in ast.walk(item)):
                            unchecked.add(node.name)
    assert unchecked == OWN_CONSTRUCTOR.keys()


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (path.stem, name)
        for path in SOURCES
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
    "sources, on_cycle",
    [
        ({"m": "def f(n):\n    return f(n - 1)"}, {"m.f"}),
        ({"m": "def f():\n    g()\ndef g():\n    f()"}, {"m.f", "m.g"}),
        (
            {"a": "from .b import g as h\ndef f():\n    h()", "b": "from .a import f\ndef g():\n    f()"},
            {"a.f", "b.g"},
        ),
        ({"m": "from .n import g\ndef f():\n    g()\n    len([])", "n": "def g():\n    pass"}, set()),
        ({"m": "def f(x):\n    def f(y):\n        return y\n    return f(x)"}, set()),
        ({"m": "class C:\n    def f(self):\n        return f(self)\ndef f(c):\n    return c.f()"}, set()),
    ],
)
def test_call_cycle_detection(sources, on_cycle):
    assert set(_cycle(_call_graph(sources)) or ()) == on_cycle


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
