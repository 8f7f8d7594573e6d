"""A bit-width lattice for int64/numpy integer expressions.

The question R009 asks is narrow: *can this expression's mathematical
value need more than 63 bits before a mask is applied?*  Signed int64
holds 63 value bits; anything wider wraps negative under numpy, and the
repo's one historical instance (``fold_xor_array`` before addresses
were canonicalised) turned that wrap into a non-terminating ``>>=``
loop, because arithmetic shift right of a negative int64 converges to
``-1``, never ``0``.

The abstract value is :class:`Width`: an upper bound on the number of
value bits (``None`` = unknown/unbounded) plus a proven-non-negative
flag.  Joins move strictly upward and all transfer functions are
monotone, but transfer functions *grow* bounds (``Add`` adds a bit,
``Mult`` sums them), so a loop-carried computation could crawl upward
one sweep at a time.  Joins therefore widen: any bound past
``_WIDEN_BITS`` collapses to unknown, making the lattice finite and
the per-function fixpoint in :class:`WidthEnv` terminating.
Loop-carried growth (``step <<= 1``) walks up the chain and lands on
unknown, which is exactly the degradation we want: the rule only fires
on *provable* overflow, never on "could not tell".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional

from .cfg import build_cfg

__all__ = ["Width", "WidthEnv", "expression_width", "TOP"]

Env = Dict[str, "Width"]

#: Widening threshold: no int64 question needs bounds past twice the
#: machine width (a product of two full-width operands is 126 bits), so
#: joins collapse anything wider to "unknown".  This is what stops a
#: loop-carried ``step <<= 1`` from crawling the fixpoint upward one
#: bit per sweep and settling on a finite-but-meaningless bound.
_WIDEN_BITS = 128


@dataclass(frozen=True)
class Width:
    """Upper bound on value bits, plus non-negativity."""

    bits: Optional[int]  # None = unknown / unbounded
    nonneg: bool = False

    @property
    def known(self) -> bool:
        return self.bits is not None

    def join(self, other: "Width") -> "Width":
        if self.bits is None or other.bits is None:
            bits: Optional[int] = None
        else:
            bits = max(self.bits, other.bits)
            if bits > _WIDEN_BITS:
                bits = None  # widen: see _WIDEN_BITS
        return Width(bits, self.nonneg and other.nonneg)

    def __str__(self) -> str:
        tag = "u" if self.nonneg else "s"
        return f"{tag}{self.bits if self.bits is not None else '?'}"


TOP = Width(None, False)
BOOL = Width(1, True)

#: Repo helpers whose return value is masked to their width argument.
_MASKING_CALLS = {"fold_xor", "fold_xor_array", "low_bits", "mask_val"}
#: Calls returning a non-negative value of unknown width.
_NONNEG_CALLS = {"len", "abs", "arange", "flatnonzero", "count_nonzero",
                 "searchsorted", "argmax", "argmin", "bit_length"}
#: Calls transparent to width: f(x) has the width of x.
_TRANSPARENT_CALLS = {"copy", "astype", "ascontiguousarray", "asarray",
                      "array", "int64", "ravel", "reshape", "sort"}


def _call_tail(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _const_int(node: ast.AST) -> Optional[int]:
    """Fold an integer constant expression (literals, ``1 << k``,
    ``(1 << k) - 1``, unary minus, ``np.int64(c)``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, ast.Call) and _call_tail(node) == "int64" \
            and len(node.args) == 1:
        return _const_int(node.args[0])
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left)
        right = _const_int(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.LShift):
                return left << right if 0 <= right < 256 else None
            if isinstance(node.op, ast.RShift):
                return left >> right if 0 <= right < 256 else None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.BitOr):
                return left | right
            if isinstance(node.op, ast.BitAnd):
                return left & right
            if isinstance(node.op, ast.BitXor):
                return left ^ right
        except (OverflowError, ValueError):  # pragma: no cover
            return None
    return None


def _const_width(value: int) -> Width:
    if value >= 0:
        return Width(value.bit_length(), True)
    return Width(None, False)


def expression_width(expr: ast.AST, env: Env) -> Width:
    """Abstract width of an integer expression under ``env``."""
    constant = _const_int(expr)
    if constant is not None:
        return _const_width(constant)
    if isinstance(expr, ast.Name):
        return env.get(expr.id, TOP)
    if isinstance(expr, ast.Subscript):
        # Array elements inhabit the array's range; boolean / fancy
        # indexing never widens values.
        return expression_width(expr.value, env)
    if isinstance(expr, ast.BinOp):
        return _binop_width(expr, env)
    if isinstance(expr, ast.UnaryOp):
        if isinstance(expr.op, ast.Not):
            return BOOL
        if isinstance(expr.op, ast.USub):
            inner = expression_width(expr.operand, env)
            return Width(inner.bits, False)
        return TOP  # ~x flips sign for nonneg x
    if isinstance(expr, (ast.Compare, ast.BoolOp)):
        return BOOL
    if isinstance(expr, ast.IfExp):
        return expression_width(expr.body, env).join(
            expression_width(expr.orelse, env)
        )
    if isinstance(expr, ast.Call):
        return _call_width(expr, env)
    return TOP


def _binop_width(expr: ast.BinOp, env: Env) -> Width:
    left = expression_width(expr.left, env)
    right = expression_width(expr.right, env)
    op = expr.op
    if isinstance(op, ast.BitAnd):
        # x & m fits in min(width) bits; a known-width side also proves
        # the result non-negative (masks here are non-negative).
        candidates = [w for w in (left, right) if w.known]
        if not candidates:
            return TOP
        bits = min(w.bits for w in candidates)  # type: ignore[type-var]
        return Width(bits, any(w.known and w.nonneg for w in (left, right)))
    if isinstance(op, (ast.BitOr, ast.BitXor)):
        if left.known and right.known:
            return Width(
                max(left.bits, right.bits),  # type: ignore[arg-type]
                left.nonneg and right.nonneg,
            )
        return TOP
    if isinstance(op, ast.Add):
        if left.known and right.known:
            return Width(
                max(left.bits, right.bits) + 1,  # type: ignore[arg-type]
                left.nonneg and right.nonneg,
            )
        return TOP
    if isinstance(op, ast.Sub):
        if left.known and right.known:
            return Width(
                max(left.bits, right.bits) + 1,  # type: ignore[arg-type]
                False,
            )
        return TOP
    if isinstance(op, ast.Mult):
        if left.known and right.known:
            return Width(
                left.bits + right.bits,  # type: ignore[operator]
                left.nonneg and right.nonneg,
            )
        return TOP
    if isinstance(op, ast.LShift):
        shift = _const_int(expr.right)
        if left.known and shift is not None and 0 <= shift <= 128:
            return Width(
                left.bits + shift,  # type: ignore[operator]
                left.nonneg,
            )
        return TOP
    if isinstance(op, ast.RShift):
        # Narrowing for non-negative values; sign-extending otherwise.
        if left.nonneg:
            return Width(left.bits, True)
        return TOP
    if isinstance(op, ast.Mod):
        if right.known:
            return Width(right.bits, True)
        return TOP
    if isinstance(op, ast.FloorDiv):
        return Width(left.bits, left.nonneg and right.nonneg)
    return TOP


def _call_width(expr: ast.Call, env: Env) -> Width:
    tail = _call_tail(expr)
    if tail in _MASKING_CALLS and len(expr.args) >= 2:
        width_arg = _const_int(expr.args[1])
        if width_arg is not None and 0 <= width_arg <= 64:
            return Width(width_arg, True)
        return TOP
    if tail in _NONNEG_CALLS:
        return Width(None, True)
    if tail in _TRANSPARENT_CALLS and len(expr.args) >= 1:
        return expression_width(expr.args[0], env)
    if tail in _TRANSPARENT_CALLS and isinstance(expr.func, ast.Attribute):
        # x.copy() / x.astype(...) — width of the receiver.
        return expression_width(expr.func.value, env)
    if tail in ("zeros", "zeros_like", "empty_like"):
        return Width(1, True)
    if tail in ("maximum", "minimum", "where"):
        widths = [
            expression_width(arg, env)
            for arg in expr.args[-2:]
        ]
        if widths:
            joined = widths[0]
            for width in widths[1:]:
                joined = joined.join(width)
            return joined
    if tail in ("min", "max") and expr.args:
        joined = expression_width(expr.args[0], env)
        for arg in expr.args[1:]:
            joined = joined.join(expression_width(arg, env))
        if tail == "min" and any(
            expression_width(a, env).known for a in expr.args
        ):
            best = min(
                (expression_width(a, env).bits
                 for a in expr.args
                 if expression_width(a, env).known),
            )
            return Width(best, joined.nonneg)
        return joined
    return TOP


class WidthEnv:
    """Per-function width environments, solved to fixpoint over the CFG.

    ``at(statement)`` is the environment *entering* the statement.
    Parameters start at ``TOP``: a kernel must be safe for any caller.
    Subscript stores weak-update the base name (join) — numpy in-place
    mutation; plain name stores strong-update.
    """

    def __init__(self, func: ast.AST) -> None:
        self.cfg = build_cfg(func)
        entry_env: Env = {}
        args = getattr(func, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                entry_env[arg.arg] = TOP
        self._entry_env = entry_env
        self._in_envs: List[Env] = [
            {} for _ in self.cfg.nodes
        ]
        self._solve()

    def _solve(self) -> None:
        nodes = self.cfg.nodes
        out_envs: List[Env] = [{} for _ in nodes]
        changed = True
        iterations = 0
        while changed and iterations < 256:
            changed = False
            iterations += 1
            for index, node in enumerate(nodes):
                incoming: Env = {}
                sources: List[Env] = []
                if node.index == self.cfg.entry or not node.pred:
                    sources.append(self._entry_env)
                sources.extend(out_envs[p] for p in node.pred)
                for source in sources:
                    for name, width in source.items():
                        if name in incoming:
                            incoming[name] = incoming[name].join(width)
                        else:
                            incoming[name] = width
                self._in_envs[index] = incoming
                outgoing = dict(incoming)
                self._transfer(node.statement, outgoing)
                if outgoing != out_envs[index]:
                    out_envs[index] = outgoing
                    changed = True

    def _transfer(self, statement: ast.stmt, env: Env) -> None:
        if isinstance(statement, ast.Assign):
            width = expression_width(statement.value, env)
            for target in statement.targets:
                self._store(target, width, env)
        elif isinstance(statement, ast.AnnAssign) and statement.value:
            width = expression_width(statement.value, env)
            self._store(statement.target, width, env)
        elif isinstance(statement, ast.AugAssign):
            equivalent = ast.BinOp(
                left=self._as_load(statement.target),
                op=statement.op,
                right=statement.value,
            )
            width = expression_width(equivalent, env)
            self._store(statement.target, width, env)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            width = TOP
            if isinstance(statement.iter, ast.Call) and _call_tail(
                statement.iter
            ) in ("range", "arange"):
                width = Width(None, True)
            self._store(statement.target, width, env)

    def _store(self, target: ast.AST, width: Width, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = width
        elif isinstance(target, (ast.Subscript, ast.Starred)):
            inner = target
            while isinstance(inner, (ast.Subscript, ast.Starred)):
                inner = inner.value
            if isinstance(inner, ast.Name):
                previous = env.get(inner.id, TOP)
                env[inner.id] = previous.join(width)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element, TOP, env)

    @staticmethod
    def _as_load(target: ast.AST) -> ast.AST:
        if isinstance(target, ast.Name):
            return ast.Name(id=target.id, ctx=ast.Load())
        return target

    # -- queries ---------------------------------------------------------

    def at(self, statement: ast.stmt) -> Env:
        node = self.cfg.node_for(statement)
        if node is None:
            return dict(self._entry_env)
        return self._in_envs[node.index]
