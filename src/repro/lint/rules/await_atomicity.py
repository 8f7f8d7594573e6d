"""R007 — await-atomicity (check-then-act races in the serving layer).

An asyncio handler that reads shared object state, awaits, and then
writes that state based on the stale read has a classic check-then-act
race: another handler runs during the suspension, the invariant the
read established no longer holds, and the write commits a decision made
against a dead snapshot.  The serving layer's admission control is the
canonical instance — ``if self._sessions_active >= max: reject`` /
``await open()`` / ``self._sessions_active += 1`` admits more sessions
than the limit under concurrent opens.

The rule builds a CFG per async method, collects reads and writes of
each ``self.*`` attribute chain, and fires when a read→write pair over
the same chain is connected by a path that crosses a suspension point.
Two shapes are exempt:

* *Compensation* — a write in an ``except``/``finally`` block of a
  ``try`` whose body awaits.  Rolling back a reservation after the
  awaited action failed is the fix for the race, not an instance of it.
* *Atomic read-modify-write* — an augmented assignment reads and writes
  in one statement; only pairs spanning distinct statements race.

The same module also polices the multiprocessing boundary: a function
handed to ``multiprocessing.Process(target=...)`` runs on a *copy* of
its arguments, so writes to attributes of parameter objects mutate
process-local state the parent never sees.  Such writes are silent
no-ops at best and split-brain state at worst.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..core import Finding, ModuleInfo, Rule, TraceStep, register
from ..flow import build_cfg
from ..flow.cfg import CFG
from ..flow.dataflow import AttributeEvent, attribute_events

#: Packages whose async handlers share mutable state across awaits.
SCOPED_PACKAGES = ("serve", "obs")

#: Attribute chains that are synchronisation primitives themselves, or
#: documented single-writer structures — not check-then-act hazards.
EXEMPT_TAILS = frozenset({"_lock", "_cond", "_loop", "_queue"})


def _chain_label(location: Tuple[str, ...]) -> str:
    return ".".join(location)


def _async_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AsyncFunctionDef, str]]:
    """Every async def with its qualifying symbol (Class.method)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        owner = getattr(node, "_lint_parent", None)
        if isinstance(owner, ast.ClassDef):
            yield node, f"{owner.name}.{node.name}"
        else:
            yield node, node.name


def _process_targets(tree: ast.AST) -> Set[str]:
    """Names passed as ``target=`` to a Process/Thread-like constructor."""
    targets: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        tail = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if tail != "Process":
            continue
        for keyword in node.keywords:
            if keyword.arg == "target" and isinstance(
                keyword.value, ast.Name
            ):
                targets.add(keyword.value.id)
    return targets


@register
class AwaitAtomicityRule(Rule):
    id = "R007"
    title = "await-atomicity"
    rationale = (
        "Reading shared state, awaiting, then writing it commits a"
        " decision made against a stale snapshot — concurrent handlers"
        " interleave at every await, so reservations must happen before"
        " suspension (with compensation on failure), not after."
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPED_PACKAGES):
            return
        yield from self._check_async_races(module)
        yield from self._check_process_targets(module)

    # -- async check-then-act --------------------------------------------

    def _check_async_races(self, module: ModuleInfo) -> Iterator[Finding]:
        for func, symbol in _async_functions(module.tree):
            cfg = build_cfg(func)
            if not cfg.suspending_nodes():
                continue
            events = attribute_events(cfg, roots={"self"})
            reported: Set[Tuple[str, ...]] = set()
            for location in sorted({e.location for e in events}):
                if location in reported:
                    continue
                if location[-1] in EXEMPT_TAILS:
                    continue
                finding = self._race_for_location(
                    module, cfg, events, location, symbol
                )
                if finding is not None:
                    reported.add(location)
                    yield finding

    def _race_for_location(
        self,
        module: ModuleInfo,
        cfg: CFG,
        events: List[AttributeEvent],
        location: Tuple[str, ...],
        symbol: str,
    ) -> Optional[Finding]:
        reads = [
            e for e in events
            if e.location == location and e.kind == "read"
        ]
        writes = [
            e for e in events
            if e.location == location and e.kind in ("write", "readwrite")
        ]
        for read in sorted(reads, key=lambda e: e.line):
            for write in sorted(writes, key=lambda e: e.line):
                if read.statement is write.statement:
                    continue
                if cfg.in_handler_of_suspending_try(write.statement):
                    continue  # compensation after a failed await
                path = cfg.path_crosses_suspension(
                    read.statement, write.statement
                )
                if path is None:
                    continue
                label = _chain_label(location)
                suspend_lines = [
                    node.line for node in path if node.suspends
                ]
                trace = [
                    TraceStep(read.line, f"read of {label} (the check)"),
                ]
                trace.extend(
                    TraceStep(
                        line,
                        "suspension point — other handlers run here",
                    )
                    for line in suspend_lines
                )
                trace.append(
                    TraceStep(write.line, f"write of {label} (the act)")
                )
                return self.finding(
                    module,
                    write.node,
                    f"'{label}' is read at line {read.line} and written"
                    f" at line {write.line} with an await in between"
                    f" (line {suspend_lines[0]}); the value checked is"
                    f" stale when the write commits — reserve before the"
                    f" await and compensate in the except path instead",
                    symbol=symbol,
                    trace=trace,
                )
        return None

    # -- cross-process mutation ------------------------------------------

    def _check_process_targets(
        self, module: ModuleInfo
    ) -> Iterator[Finding]:
        worker_names = _process_targets(module.tree)
        if not worker_names:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name not in worker_names:
                continue
            params = {
                arg.arg
                for arg in node.args.posonlyargs
                + node.args.args
                + node.args.kwonlyargs
            }
            cfg = build_cfg(node)
            for event in attribute_events(cfg, roots=params):
                if event.kind not in ("write", "readwrite"):
                    continue
                label = _chain_label(event.location)
                yield self.finding(
                    module,
                    event.node,
                    f"worker-process function mutates '{label}': the"
                    f" child runs on a pickled copy of its arguments,"
                    f" so this write never reaches the parent — pass"
                    f" results through the queue instead",
                    symbol=node.name,
                    trace=[
                        TraceStep(
                            node.lineno,
                            f"'{node.name}' is a Process target"
                            f" (separate address space)",
                        ),
                        TraceStep(event.line, f"write of {label}"),
                    ],
                )