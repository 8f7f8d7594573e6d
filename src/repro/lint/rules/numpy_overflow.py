"""R009 — int64 overflow and sign-extension hazards in numpy kernels.

The batch kernels do address arithmetic on ``int64`` arrays.  Two
hazards hide there, both invisible to the syntactic rules:

* **Width overflow** — a ``+``/``<<``/``*`` chain whose operands are
  wide enough that the mathematical result needs more than the 63 value
  bits of a signed int64 *before* any mask is applied.  numpy wraps
  silently (and, since 1.24, may raise on scalar conversion) — either
  way the kernel diverges from the unbounded-int reference semantics.
* **Sign-extending shift loops** — ``x >>= k`` inside a loop only
  terminates when ``x`` reaches zero, and arithmetic shift right of a
  *negative* int64 converges to ``-1``, never zero.  Any input at or
  above ``2**63`` (an un-canonicalised address) wraps negative and the
  loop hangs.  This is the historical ``fold_xor_array`` bug: the
  ingest layer now canonicalises addresses to 63 bits, but the kernel
  itself must not rely on every caller having done so.

The rule runs the bit-width lattice (``repro.lint.flow.intervals``) to
a fixpoint over each kernel function's CFG.  The analysis is
per-function by design: a kernel must be safe for *any* caller, so
caller context could only hide hazards.  It fires only on *proven*
hazards: a known width above 63 bits, or a shift-loop on a value not
proven non-negative.  Loop-carried growth the lattice cannot bound
degrades to "unknown" and stays silent — the rule never guesses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..core import Finding, ModuleInfo, Rule, TraceStep, register
from ..flow.cfg import scan_roots
from ..flow.dataflow import ReachingDefs
from ..flow.intervals import WidthEnv, expression_width

#: Packages doing vectorised int64 math (rule scope).
SCOPED_PACKAGES = ("kernels",)

#: Signed int64 value bits.
INT64_VALUE_BITS = 63


def _functions(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = getattr(node, "_lint_parent", None)
        if isinstance(owner, ast.ClassDef):
            yield node, f"{owner.name}.{node.name}"
        else:
            yield node, node.name


def _loop_ancestor(node: ast.AST) -> Optional[ast.AST]:
    current = getattr(node, "_lint_parent", None)
    while current is not None:
        if isinstance(current, (ast.While, ast.For)):
            return current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        current = getattr(current, "_lint_parent", None)
    return None


def _shift_base_name(target: ast.AST) -> Optional[str]:
    """The shifted array's name: plain ``x`` or ``x[mask]``."""
    inner = target
    while isinstance(inner, (ast.Subscript, ast.Starred)):
        inner = inner.value
    if isinstance(inner, ast.Name):
        return inner.id
    return None


def _under_mask(node: ast.AST) -> bool:
    """Is this expression consumed by a ``& mask`` / ``%`` ancestor
    within its statement?"""
    current = getattr(node, "_lint_parent", None)
    while current is not None and not isinstance(current, ast.stmt):
        if isinstance(current, ast.BinOp) and isinstance(
            current.op, (ast.BitAnd, ast.Mod)
        ):
            return True
        if isinstance(current, ast.Compare):
            return True
        current = getattr(current, "_lint_parent", None)
    return False


@register
class NumpyOverflowRule(Rule):
    id = "R009"
    title = "numpy-int64-overflow"
    rationale = (
        "int64 arithmetic that can exceed 63 value bits before masking"
        " wraps silently, and right-shift loops on possibly-negative"
        " values never terminate — kernels must mask at entry, not"
        " trust their callers' ranges."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPED_PACKAGES):
            return
        for func, symbol in _functions(module.tree):
            env = WidthEnv(func)
            defs = ReachingDefs(env.cfg)
            yield from self._check_widths(module, symbol, env)
            yield from self._check_shift_loops(
                module, symbol, env, defs
            )

    # -- proven width overflow -------------------------------------------

    def _check_widths(
        self, module: ModuleInfo, symbol: str, env: WidthEnv
    ) -> Iterator[Finding]:
        for statement in env.cfg.iter_statements():
            scope = env.at(statement)
            for node in (
                child
                for root in scan_roots(statement)
                for child in ast.walk(root)
            ):
                if not isinstance(node, ast.BinOp):
                    continue
                if not isinstance(
                    node.op,
                    (ast.Add, ast.Mult, ast.LShift),
                ):
                    continue
                width = expression_width(node, scope)
                if not width.known or width.bits <= INT64_VALUE_BITS:
                    continue
                if _under_mask(node):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"'{module.segment(node)}' may need {width.bits}"
                    f" value bits — more than the {INT64_VALUE_BITS} an"
                    f" int64 holds; mask the operands before widening"
                    f" arithmetic",
                    symbol=symbol,
                    trace=[
                        TraceStep(
                            getattr(node, "lineno", statement.lineno),
                            f"widest provable value: {width.bits} bits",
                        )
                    ],
                )

    # -- sign-extending shift loops --------------------------------------

    def _check_shift_loops(
        self,
        module: ModuleInfo,
        symbol: str,
        env: WidthEnv,
        defs: ReachingDefs,
    ) -> Iterator[Finding]:
        for statement in env.cfg.iter_statements():
            target: Optional[ast.AST] = None
            if isinstance(statement, ast.AugAssign) and isinstance(
                statement.op, ast.RShift
            ):
                target = statement.target
            elif isinstance(statement, ast.Assign) and isinstance(
                statement.value, ast.BinOp
            ) and isinstance(statement.value.op, ast.RShift):
                # x = x >> k with matching target
                value_base = _shift_base_name(statement.value.left)
                for assign_target in statement.targets:
                    if _shift_base_name(assign_target) == value_base:
                        target = assign_target
                        break
            if target is None:
                continue
            if _loop_ancestor(statement) is None:
                continue
            name = _shift_base_name(target)
            if name is None:
                continue
            width = env.at(statement).get(name)
            if width is not None and width.nonneg:
                continue  # proven non-negative: the shift reaches zero
            trace: List[TraceStep] = []
            for definition in defs.chain(statement, name):
                if definition.value is None:
                    note = (
                        f"'{definition.name}' enters as a parameter —"
                        f" range unknown"
                    )
                else:
                    note = (
                        f"'{definition.name}' defined here without a"
                        f" non-negative bound"
                    )
                trace.append(TraceStep(definition.line, note))
            trace.reverse()
            trace.append(
                TraceStep(
                    statement.lineno,
                    f"arithmetic '>>=' in a loop: negative int64"
                    f" converges to -1, never 0",
                )
            )
            yield self.finding(
                module,
                statement,
                f"right-shift loop on '{name}' whose non-negativity is"
                f" unproven: any input at or above 2**63 wraps negative"
                f" and the loop never terminates — mask to 63 bits at"
                f" function entry (e.g."
                f" values & np.int64((1 << 63) - 1))",
                symbol=symbol,
                trace=trace,
            )
