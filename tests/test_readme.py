import argparse
import re
from pathlib import Path

import causalstruct
from causalstruct.cli import build_parser

README = Path(__file__).parent.parent / "README.md"


def test_every_name_the_readme_imports_is_exported():
    blocks = re.findall(r"from causalstruct import \(([^)]*)\)", README.read_text())
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names
    assert names <= set(causalstruct.__all__)
    assert all(hasattr(causalstruct, name) for name in causalstruct.__all__)


def test_command_block_lists_exactly_the_cli_subcommands():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S)
    documented = [line.split()[1] for line in block.group(1).splitlines()]
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert documented == list(commands)
