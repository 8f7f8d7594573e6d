"""R008 — bit-width hygiene, dataflow edition.

R003 decides "is this address math?" by scanning the *statement* for
address-like identifiers.  That heuristic has a blind spot the size of
a rename: ``cursor = addr`` launders the value into a name the filter
never matches, and every unmasked ``cursor + stride`` after that is
invisible.  R008 closes the gap by tracking the address *property*
through the dataflow instead of the spelling:

* **Sources** are where naming is trustworthy: parameters and attribute
  loads whose identifier matches the address vocabulary (``addr``,
  ``history``, ``tag`` ... minus the geometry/statistics vocabulary).
* **Propagation** follows reaching definitions: a local is address-
  tainted when any definition that reaches one of its uses assigns an
  address-tainted expression.  Arithmetic, conditionals and subscript
  *loads* (table cells hold field values) propagate; subscript *indices*
  and geometry-named attributes do not.
* **Across calls**: a resolved project function whose return value is
  address-tainted under its own parameters passes taint to call sites
  whose arguments are tainted.  ``bitops`` helpers mask by construction
  and stop taint.  Unresolved calls stop taint too — the rule degrades
  toward silence, never toward noise, when the call graph is partial.

A finding fires on an unmasked ``+``/``-``/``<<`` whose operand is
tainted, and carries the def→use chain that connects the operand back
to its source — the part R003 could never show.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutil import attr_chain
from ..core import Finding, ModuleInfo, Rule, TraceStep, register
from ..flow import local_context
from ..flow.cfg import build_cfg
from ..flow.dataflow import ReachingDefs
from ..flow.project import FunctionInfo
from .bitwidth import (
    ADDRESS_NAME_RE,
    GEOMETRY_NAME_RE,
    MASKING_CALLS,
    OVERFLOWING_OPS,
    SCOPED_PACKAGES,
    _is_masked,
)


def _is_source_name(name: str) -> bool:
    return bool(
        ADDRESS_NAME_RE.search(name)
        and not GEOMETRY_NAME_RE.search(name)
    )


class _FunctionTaint:
    """Address-taint for one function body, solved over reaching defs."""

    def __init__(
        self,
        func: ast.AST,
        returns_tainted_callees: Set[str],
    ) -> None:
        self.cfg = build_cfg(func)
        self.defs = ReachingDefs(self.cfg)
        self._tainted_callees = returns_tainted_callees
        #: Local names proven tainted (grows monotonically to fixpoint).
        self.tainted: Set[str] = {
            name for name in self.defs.params if _is_source_name(name)
        }
        self._solve()

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self.cfg.nodes:
                statement = node.statement
                for definition in self.defs._definitions(statement):
                    if definition.name in self.tainted:
                        continue
                    if definition.value is None:
                        continue
                    if self.expr_tainted(definition.value, statement):
                        self.tainted.add(definition.name)
                        changed = True

    def expr_tainted(self, expr: ast.AST, statement: ast.stmt) -> bool:
        """Does ``expr`` (evaluated at ``statement``) carry a field value
        derived from an address-like source?"""
        if isinstance(expr, ast.Name):
            # Dataflow taint, or the name itself belongs to the address
            # vocabulary (sources are where naming is trustworthy).
            return expr.id in self.tainted or _is_source_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return _is_source_name(expr.attr)
        if isinstance(expr, ast.BinOp):
            return self.expr_tainted(
                expr.left, statement
            ) or self.expr_tainted(expr.right, statement)
        if isinstance(expr, ast.UnaryOp):
            return self.expr_tainted(expr.operand, statement)
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(
                expr.body, statement
            ) or self.expr_tainted(expr.orelse, statement)
        if isinstance(expr, ast.Subscript):
            # Table cells hold field values; the index is consumed.
            return self.expr_tainted(expr.value, statement)
        if isinstance(expr, ast.Call):
            chain = attr_chain(expr.func)
            if chain is None:
                return False
            if chain[-1] in MASKING_CALLS:
                return False  # masked by construction
            if ".".join(chain) in self._tainted_callees or chain[
                -1
            ] in self._tainted_callees:
                return any(
                    self.expr_tainted(arg, statement)
                    for arg in expr.args
                )
            return False
        return False

    def chain_trace(
        self, statement: ast.stmt, expr: ast.AST
    ) -> List[TraceStep]:
        """def→use steps connecting a tainted operand to its source."""
        name = self._first_tainted_name(expr, statement)
        steps: List[TraceStep] = []
        if name is None:
            return steps
        for definition in self.defs.chain(statement, name):
            if definition.value is None:
                note = f"'{definition.name}' enters as a parameter"
            else:
                note = f"'{definition.name}' defined here"
            steps.append(TraceStep(definition.line, note))
        steps.reverse()  # source first, use last
        return steps

    def _first_tainted_name(
        self, expr: ast.AST, statement: ast.stmt
    ) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (
                node.id in self.tainted or _is_source_name(node.id)
            ):
                return node.id
        return None


@register
class BitWidthFlowRule(Rule):
    id = "R008"
    title = "bit-width-hygiene-flow"
    rationale = (
        "Renaming an address does not unmask it: taint tracked through"
        " assignments and resolved calls catches unmasked field"
        " arithmetic that the R003 name filter cannot see."
    )
    needs_project = True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPED_PACKAGES):
            return
        tainted_callees = self._tainted_return_functions(module)
        for func, symbol in self._functions(module.tree):
            taint = _FunctionTaint(func, tainted_callees)
            yield from self._check_function(module, func, symbol, taint)

    @staticmethod
    def _functions(tree: ast.AST):
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            owner = getattr(node, "_lint_parent", None)
            if isinstance(owner, ast.ClassDef):
                yield node, f"{owner.name}.{node.name}"
            else:
                yield node, node.name

    def _tainted_return_functions(self, module: ModuleInfo) -> Set[str]:
        """Names of project functions whose return value is address-
        tainted under their own parameters (interprocedural summaries;
        single-module when running unbound on a fixture)."""
        project, _ = local_context(module, self.project, self.callgraph)
        cached = getattr(self, "_summary_cache", None)
        if cached is not None and cached[0] is project:
            return cached[1]
        summaries: Set[str] = set()
        for info in project.iter_functions():
            if self._returns_tainted(info):
                summaries.add(info.name)
                summaries.add(info.qualname)
        self._summary_cache = (project, summaries)
        return summaries

    @staticmethod
    def _returns_tainted(info: FunctionInfo) -> bool:
        taint = _FunctionTaint(info.node, set())
        if not taint.tainted:
            return False
        for node in ast.walk(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.BinOp) and isinstance(
                    node.value.op, ast.BitAnd
                ):
                    continue  # masked at the return
                if taint.expr_tainted(node.value, node):
                    return True
        return False

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.AST,
        symbol: str,
        taint: _FunctionTaint,
    ) -> Iterator[Finding]:
        for node in taint.cfg.iter_statements():
            statement = node
            if isinstance(statement, ast.AugAssign) and isinstance(
                statement.op, OVERFLOWING_OPS
            ):
                target = statement.target
                if isinstance(target, ast.Name) and (
                    target.id in taint.tainted
                    or _is_source_name(target.id)
                ) or (
                    isinstance(target, ast.Attribute)
                    and _is_source_name(target.attr)
                ):
                    yield self.finding(
                        module,
                        statement,
                        f"augmented {type(statement.op).__name__} on"
                        f" address-tainted '{module.segment(target)}'"
                        f" without a masking '&'",
                        symbol=symbol,
                        trace=taint.chain_trace(statement, target),
                    )
                    continue
            value = self._statement_value(statement)
            if value is None:
                continue
            for op_node in ast.walk(value):
                if not isinstance(op_node, ast.BinOp):
                    continue
                if not isinstance(op_node.op, OVERFLOWING_OPS):
                    continue
                if all(
                    isinstance(operand, ast.Constant)
                    for operand in (op_node.left, op_node.right)
                ):
                    continue
                # For a left shift only the *shifted* value widens; a
                # tainted shift amount builds a one-hot mask from a
                # bounded index (`1 << pattern`), which is lookup
                # geometry, not field growth.
                if isinstance(op_node.op, ast.LShift):
                    if not taint.expr_tainted(op_node.left, statement):
                        continue
                elif not (
                    taint.expr_tainted(op_node.left, statement)
                    or taint.expr_tainted(op_node.right, statement)
                ):
                    continue
                if _is_masked(op_node, stop=statement):
                    continue
                trace = taint.chain_trace(statement, op_node)
                trace.append(
                    TraceStep(
                        getattr(op_node, "lineno", statement.lineno),
                        "unmasked arithmetic on the tainted value",
                    )
                )
                yield self.finding(
                    module,
                    op_node,
                    f"unmasked {type(op_node.op).__name__} on"
                    f" address-tainted value"
                    f" '{module.segment(op_node)}'; bound it with"
                    f" '& mask(width)' (common/bitops)",
                    symbol=symbol,
                    trace=trace,
                )

    @staticmethod
    def _statement_value(statement: ast.stmt) -> Optional[ast.AST]:
        if isinstance(statement, ast.Assign):
            return statement.value
        if isinstance(statement, ast.AnnAssign):
            return statement.value
        if isinstance(statement, ast.Return):
            return statement.value
        if isinstance(statement, ast.AugAssign):
            return statement.value
        return None
