"""Reaching definitions and attribute-access events over a CFG.

Two consumers, two views:

* The await-atomicity rule (R007) needs *attribute events*: every read
  and write of an attribute chain (``self._sessions_active``,
  ``self.stats.timeouts``) with its statement, so it can ask the CFG
  whether a read→write pair straddles a suspension point.
* The int64 overflow rule (R009) needs *reaching definitions* for
  local names: which assignments may produce the value a given use
  consumes, so its findings can print the actual def→use chain back to
  the unbounded definition instead of a bare line number.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..astutil import attr_chain
from .cfg import CFG, scan_roots

__all__ = [
    "AttributeEvent",
    "ReachingDefs",
    "attribute_events",
]

Location = Tuple[str, ...]


@dataclass(frozen=True)
class AttributeEvent:
    """One read or write of an attribute chain in one statement."""

    statement: ast.stmt
    location: Location
    #: "read", "write", or "readwrite" (augmented assignment — the read
    #: and the write happen atomically within one statement).
    kind: str
    #: The AST node of the access itself (for line anchoring).
    node: ast.AST

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno",
                       getattr(self.statement, "lineno", 0))


def _store_targets(statement: ast.stmt) -> List[ast.AST]:
    if isinstance(statement, ast.Assign):
        return list(statement.targets)
    if isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        return [statement.target]
    if isinstance(statement, ast.Delete):
        return list(statement.targets)
    return []


def attribute_events(
    cfg: CFG, roots: Optional[Set[str]] = None
) -> List[AttributeEvent]:
    """Every attribute read/write in the CFG's statements.

    ``roots`` restricts events to chains rooted at the given names
    (``{"self"}`` for shared-object state).  Reads that are merely the
    prefix of a longer chain (``self.stats`` inside
    ``self.stats.timeouts``) are not reported separately; method-call
    receivers (``self._queue`` in ``self._queue.put_nowait(...)``) are
    reported as reads of the receiver chain.
    """
    events: List[AttributeEvent] = []
    for statement in cfg.iter_statements():
        targets = _store_targets(statement)
        target_ids = set()
        for target in targets:
            for node in ast.walk(target):
                target_ids.add(id(node))
        kind = (
            "readwrite"
            if isinstance(statement, ast.AugAssign)
            else "write"
        )
        for target in targets:
            location = attr_chain(target)
            if location is None:
                # Subscript / starred target: charge the base chain.
                inner = target
                while isinstance(inner, (ast.Subscript, ast.Starred)):
                    inner = inner.value
                location = attr_chain(inner)
            if location is None or len(location) < 2:
                continue
            if roots is not None and location[0] not in roots:
                continue
            events.append(
                AttributeEvent(statement, location, kind, target)
            )
        # Reads: maximal attribute chains in Load context, skipping
        # anything that is part of a store target.  Compound statements
        # scan only their header expressions (bodies are own nodes).
        for node in (
            child
            for root in scan_roots(statement)
            for child in ast.walk(root)
        ):
            if not isinstance(node, ast.Attribute):
                continue
            if id(node) in target_ids:
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            parent = getattr(node, "_lint_parent", None)
            if isinstance(parent, ast.Attribute):
                continue  # only the outermost chain node reports
            location = attr_chain(node)
            if location is None or len(location) < 2:
                continue
            if roots is not None and location[0] not in roots:
                continue
            events.append(
                AttributeEvent(statement, location, "read", node)
            )
    return events


@dataclass(frozen=True)
class _Definition:
    """One definition site of a local name."""

    name: str
    statement: ast.stmt
    #: RHS expression, when the definition has one (None for for-loop
    #: targets, with-as bindings, parameters).
    value: Optional[ast.AST]

    @property
    def line(self) -> int:
        return getattr(self.statement, "lineno", 0)


class ReachingDefs:
    """Classic reaching-definitions over a statement-level CFG.

    Definitions are assignments to plain local names (``x = ...``,
    ``x += ...``, ``for x in ...``, ``with ... as x``); attribute and
    subscript stores do not kill or generate (they mutate the object a
    name refers to, not the binding).  Function parameters act as
    definitions reaching from the entry.
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.params: List[str] = self._param_names(cfg.func)
        self._defs_at: List[List[_Definition]] = []
        self._in_sets: List[Set[int]] = []
        self._all_defs: List[_Definition] = [
            _Definition(name, getattr(cfg, "func"), None)  # type: ignore[arg-type]
            for name in self.params
        ]
        self._param_def_ids = set(range(len(self._all_defs)))
        for node in cfg.nodes:
            local = self._definitions(node.statement)
            self._defs_at.append(local)
            self._all_defs.extend(local)
        self._solve()

    @staticmethod
    def _param_names(func: ast.AST) -> List[str]:
        args = getattr(func, "args", None)
        if args is None:
            return []
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    @staticmethod
    def _definitions(statement: ast.stmt) -> List[_Definition]:
        found: List[_Definition] = []

        def bind(target: ast.AST, value: Optional[ast.AST]) -> None:
            if isinstance(target, ast.Name):
                found.append(_Definition(target.id, statement, value))
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    bind(element, None)
            elif isinstance(target, ast.Starred):
                bind(target.value, None)

        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                bind(target, statement.value)
        elif isinstance(statement, ast.AnnAssign):
            bind(statement.target, statement.value)
        elif isinstance(statement, ast.AugAssign):
            bind(statement.target, statement.value)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            bind(statement.target, None)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars, None)
        return found

    def _solve(self) -> None:
        nodes = self.cfg.nodes
        count = len(nodes)
        def_ids_at: List[Set[int]] = []
        offset = len(self._param_def_ids)
        for local in self._defs_at:
            ids = set(range(offset, offset + len(local)))
            offset += len(local)
            def_ids_at.append(ids)
        kills: List[Set[str]] = [
            {d.name for d in local} for local in self._defs_at
        ]
        self._in_sets = [set() for _ in range(count)]
        out_sets: List[Set[int]] = [set() for _ in range(count)]
        entry_defs = set(self._param_def_ids)
        changed = True
        while changed:
            changed = False
            for index in range(count):
                node = nodes[index]
                incoming: Set[int] = set()
                if node.index == self.cfg.entry or not node.pred:
                    incoming |= entry_defs
                for pred in node.pred:
                    incoming |= out_sets[pred]
                if incoming != self._in_sets[index]:
                    self._in_sets[index] = incoming
                killed = kills[index]
                outgoing = {
                    def_id
                    for def_id in incoming
                    if self._all_defs[def_id].name not in killed
                } | def_ids_at[index]
                if outgoing != out_sets[index]:
                    out_sets[index] = outgoing
                    changed = True

    # -- queries ---------------------------------------------------------

    def defs_reaching(
        self, statement: ast.stmt, name: str
    ) -> List[_Definition]:
        """Definitions of ``name`` that may reach ``statement``."""
        node = self.cfg.node_for(statement)
        if node is None:
            return []
        return [
            self._all_defs[def_id]
            for def_id in sorted(self._in_sets[node.index])
            if self._all_defs[def_id].name == name
        ]

    def chain(
        self, statement: ast.stmt, name: str, depth: int = 4
    ) -> List[_Definition]:
        """A def→use chain for ``name`` at ``statement``: the reaching
        definition(s) of the name, then (when a definition's RHS is
        itself a plain name) that name's definitions, up to ``depth``
        hops.  Deterministic: first definition in line order at each
        hop."""
        steps: List[_Definition] = []
        seen: Set[Tuple[str, int]] = set()
        current_stmt: ast.stmt = statement
        current_name = name
        for _ in range(depth):
            defs = sorted(
                self.defs_reaching(current_stmt, current_name),
                key=lambda d: d.line,
            )
            if not defs:
                break
            definition = defs[0]
            key = (definition.name, definition.line)
            if key in seen:
                break
            seen.add(key)
            steps.append(definition)
            if definition.value is None or not isinstance(
                definition.value, ast.Name
            ):
                break
            if definition.statement is self.cfg.func:
                break
            current_stmt = definition.statement
            current_name = definition.value.id
        return steps
