import re
from pathlib import Path

import causalstruct

README = Path(__file__).parent.parent / "README.md"


def test_every_name_the_readme_imports_is_exported():
    blocks = re.findall(r"from causalstruct import \(([^)]*)\)", README.read_text())
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names
    assert names <= set(causalstruct.__all__)
    assert all(hasattr(causalstruct, name) for name in causalstruct.__all__)
