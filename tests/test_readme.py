import argparse
import ast
import importlib
import re
from pathlib import Path

import causalstruct
from causalstruct import cli
from causalstruct.cli import build_parser

README = Path(__file__).parent.parent / "README.md"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
CLI = Path(causalstruct.__file__).parent / "cli.py"


def test_every_name_the_readme_imports_is_exported():
    blocks = re.findall(r"from causalstruct import \(([^)]*)\)", README.read_text())
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names
    assert names <= set(causalstruct.__all__)
    assert all(hasattr(causalstruct, name) for name in causalstruct.__all__)


def test_the_public_list_is_exactly_what_the_package_imports():
    homes = causalstruct._HOMES
    assert causalstruct.__all__ == sorted(homes)
    for name, home in homes.items():
        assert getattr(causalstruct, name) is getattr(importlib.import_module(home), name), name


def test_the_project_version_is_the_package_version():
    # A regex, not tomllib: tomllib is missing on Python 3.10, which the project supports.
    project = re.search(r"^\[project\]$(.*?)^\[", PYPROJECT.read_text(), re.M | re.S)
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"', project.group(1), re.M)
    assert version == causalstruct.__version__


def subcommands() -> dict:
    """Each subcommand's name and parser."""
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands


def test_command_block_lists_exactly_the_cli_subcommands():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    documented = [line.split()[1] for line in block.group(1).splitlines()]
    assert documented == list(subcommands())


def test_every_subcommand_runs_a_cli_handler():
    for parser in subcommands().values():
        run = parser.get_default("run")
        assert run.__name__.startswith("_cmd_") and getattr(cli, run.__name__) is run


def test_library_example_runs_from_the_repo_root(monkeypatch, capsys):
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(README.parent)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "0 ['d']\n1 ['a']\n2 ['m']\n"


def test_error_categories_are_exactly_those_the_cli_prints():
    (listed,) = re.findall(r"\(categories: (.*?)\)", README.read_text(), re.S)
    documented = set(re.findall(r"`([^`]+)`", listed))
    printed = set(re.findall(r"error:([a-z-]+)", CLI.read_text()))
    assert documented
    assert documented == printed


def test_every_test_the_bounds_table_names_exists():
    named = re.findall(r"^\|.*\| `(tests/[^`]+)` \|$", README.read_text(), re.M)
    assert len(named) == 6
    for name in named:
        path, *scopes = name.split("::")
        node = ast.parse((README.parent / path).read_text(encoding="utf-8"))
        for scope in scopes:  # a class, then a test function in it, or a test function
            node = next((n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == scope), None)
            assert node is not None, name
        assert isinstance(node, ast.FunctionDef) and node.name.startswith("test_"), name
