"""Count the code lines of each module of the package.

A code line holds at least one token that is not a comment; docstrings
(the string that opens a module, class or function), comments and blank
lines do not count, and a statement spread over several lines counts each
of them.  Prints one line per module and a total:

    python tests/code_lines.py            # src/causalstruct
    python tests/code_lines.py DIRECTORY  # the modules of another checkout
    python tests/code_lines.py OLD NEW    # both, and NEW's difference from OLD
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causalstruct"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_counts(package: Path) -> dict[str, int]:
    return {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}


def main(argv) -> int:
    packages = [Path(directory) for directory in argv] or [PACKAGE]
    counts = [module_counts(package) for package in packages]
    names = sorted(set().union(*counts))
    rows = [(name, [c.get(name, 0) for c in counts]) for name in names]
    rows.append(("total", [sum(c.values()) for c in counts]))
    width = max(map(len, names), default=0)
    for name, values in rows:
        shown = "".join(f"  {value:>5}" for value in values)
        if len(values) == 2:
            shown += f"  {values[1] - values[0]:>+5}"
        print(f"{name:<{width}}{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
