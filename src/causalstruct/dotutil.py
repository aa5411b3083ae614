"""DOT output helpers."""

from __future__ import annotations

import re

_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?(\.\d+|\d+(\.\d*)?)")

# Keywords may not be used as bare identifiers in DOT.
_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def dot_id(name: str) -> str:
    """Quote ``name`` if it is not usable as a bare DOT identifier."""
    if _BARE_ID.fullmatch(name) and name.lower() not in _KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _digraph(graph: str, body: list[str], names, edges) -> str:
    """``digraph graph`` of the ``body`` lines, then the sorted edges as arrows between names."""
    lines = [f"digraph {graph} {{", *body]
    lines += [f"  {dot_id(names[u])} -> {dot_id(names[v])};" for u, v in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
