"""Small AST helpers shared by the repro.lint rule families."""

from __future__ import annotations

import ast


def dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_map(tree: ast.Module) -> dict[str, str]:
    """Local alias -> canonical dotted name, from a module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    time`` maps ``time -> time.time``; ``from numpy.random import
    default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Only top-level and nested Import/ImportFrom statements are scanned
    (relative imports resolve within the package and never shadow the
    stdlib/numpy names the determinism rules look for).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of an expression, through import aliases.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` aliases ``numpy``; a bare ``default_rng`` resolves
    through a ``from numpy.random import default_rng`` alias.
    """
    name = dotted(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    full_head = aliases.get(head, head)
    return f"{full_head}.{rest}" if rest else full_head
