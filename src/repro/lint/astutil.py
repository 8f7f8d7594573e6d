"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "attr_chain",
    "iter_method_defs",
    "self_attr",
]


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Dotted-name chain of an attribute expression, root first.

    ``predictor.config.entries`` -> ``("predictor", "config", "entries")``;
    ``None`` when the expression is not a pure name/attribute chain
    (e.g. ``foo().bar``).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """``"X"`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_method_defs(
    class_def: ast.ClassDef,
) -> Iterator[ast.FunctionDef]:
    """Direct (non-nested) function definitions of a class body."""
    for statement in class_def.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield statement  # type: ignore[misc]
