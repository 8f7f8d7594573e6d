"""Per-layer ledger for traced runs: spans around calls into each layer.

:func:`install` replaces each named public function of the program with a
timing wrapper, at every ``repro`` module that binds it (the kernels import
by name, so ``repro.kernels.cap.solve_link_table`` and
``repro.kernels.link_table.solve_link_table`` are both replaced).  Nothing
under ``src/`` changes; untraced runs never call :func:`install`.

A wrapper appends one span per call to an in-memory list:
``(layer, start_s, dur_s, self_s, info)``.  Self time is the span's
duration minus the time its child spans cover, tracked with a per-thread
stack.  ``info`` is a small per-layer count taken from the call's
arguments or result (loads evaluated, bytes decoded, ...).  Coroutines
(the shard hop) are timed whole and stay off the stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, float, Any]


def _scalar_loads(args: tuple, kwargs: dict, result: Any) -> int:
    """Loads a ``run_on_columns`` call ran through the scalar loop."""
    return args[1].loads if result.backend == "python" else 0


def _feed_info(args: tuple, kwargs: dict, result: Any) -> dict:
    session = args[0]
    return {
        "session": session.session_id,
        "index": session.feeds - 1,
        # Kernels may only run on a session's first feed.
        "kernel": session.feeds == 1 and session.kernel_feeds == 1,
        "loads": len(result),
    }


def _encode_info(args: tuple, kwargs: dict, result: Any) -> tuple:
    return (args[0].get("type"), len(result))


#: (module, attribute, layer, info) for every wrapped public function.
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.workloads.suites", "get_predictor_stream", "trace.load", None),
    ("repro.workloads.suites", "get_trace", "trace.load", None),
    ("repro.eval.engine", "execute_job", "engine.job", None),
    ("repro.eval.engine", "build_predictor", "engine.build", None),
    ("repro.serve.session", "run_on_columns", "scalar.loop", _scalar_loads),
    ("repro.serve.session", "run_on_stream", "scalar.loop", None),
    ("repro.serve.session", "PredictorSession.feed", "session.feed",
     _feed_info),
    ("repro.kernels", "try_run_batch", "kernels.dispatch", None),
    ("repro.kernels", "run_batch", "kernels.dispatch", None),
    ("repro.kernels.lb", "lb_solve", "kernels.lb_solve", None),
    ("repro.kernels.link_table", "solve_link_table", "kernels.lt_solve",
     None),
    ("repro.kernels.control_flow", "resolve_cfi", "kernels.cfi", None),
    ("repro.kernels.control_flow", "resolve_cfi_hybrid", "kernels.cfi",
     None),
    ("repro.kernels.cap", "cap_rows", "kernels.rows", None),
    ("repro.kernels.cap", "plan_cap", "kernels.rows", None),
    ("repro.kernels.stride", "stride_rows", "kernels.rows", None),
    ("repro.kernels.stride", "plan_stride", "kernels.rows", None),
    ("repro.kernels.hybrid", "plan_hybrid", "kernels.rows", None),
    ("repro.kernels.cap", "commit_cap", "kernels.commit", None),
    ("repro.kernels.stride", "commit_stride", "kernels.commit", None),
    ("repro.kernels.hybrid", "commit_hybrid", "kernels.commit", None),
    ("repro.timing.ooo", "simulate", "timing.simulate",
     lambda args, kwargs, result: result.loads),
    ("repro.serve.protocol", "decode_events", "protocol.decode",
     lambda args, kwargs, result: len(args[0])),
    ("repro.serve.protocol", "encode_json", "protocol.encode", _encode_info),
    # The manager's round trip to the shard worker for one feed.  The
    # server's own ``shard.hop`` spans are never recorded (ShardManager
    # receives the server's still-empty Tracer, which is falsy), so the
    # hop is timed here.
    ("repro.serve.sharding", "ShardManager.feed", "shard.hop",
     lambda args, kwargs, result: args[1]),
)

#: Layers whose self time the grid coverage check adds up.
GRID_LAYERS = (
    "trace.load", "engine.job", "engine.build", "scalar.loop",
    "kernels.dispatch", "kernels.lb_solve", "kernels.lt_solve",
    "kernels.cfi", "kernels.rows", "kernels.commit", "timing.simulate",
)


class Ledger:
    """In-memory span list plus the wrapper factory that fills it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Child-time accumulators of the open synchronous spans.  Every
        #: wrapped synchronous call runs on one thread per process (the
        #: grid process, the server's event loop, the shard worker).
        self._stack: List[List[float]] = []

    def wrap(
        self, func: Callable, layer: str, info: Optional[Callable]
    ) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            # Coroutines interleave on the event loop, so their spans stay
            # off the stack: all of their duration counts as self time.
            start = clock()
            result = await func(*args, **kwargs)
            dur = clock() - start
            detail = None if info is None else info(args, kwargs, result)
            spans.append((layer, start, dur, dur, detail))
            return result

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                detail = None
                if info is not None and result is not None:
                    detail = info(args, kwargs, result)
                spans.append((layer, start, dur, dur - children[0], detail))

        wrapped = awrapper if inspect.iscoroutinefunction(func) else wrapper
        return functools.wraps(func)(wrapped)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON (how a server process hands them back)."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.spans), encoding="utf-8")
        tmp.replace(path)


def install(ledger: Ledger) -> None:
    """Wrap every target at every ``repro`` module that binds it."""
    for module_name, attr, layer, info in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            original = getattr(owner, method)
            setattr(owner, method, ledger.wrap(original, layer, info))
            continue
        original = getattr(module, attr)
        wrapped = ledger.wrap(original, layer, info)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per layer, in seconds."""
    totals: Dict[str, float] = {}
    for layer, _start, _dur, self_s, _info in spans:
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals


def write_chrome(spans: Sequence[Span], path: Path) -> int:
    """Write spans once as Chrome trace JSON; returns the dropped count.

    Goes through the program's own :class:`repro.obs.tracing.Tracer`, sized
    so that nothing is evicted.
    """
    from repro.obs.tracing import Tracer

    tracer = Tracer(capacity=max(1, len(spans)))
    for layer, start, dur, self_s, info in spans:
        args: Dict[str, Any] = {"self_us": self_s * 1e6}
        if info is not None:
            args["info"] = info
        tracer.record(layer, start_us=start * 1e6, dur_us=dur * 1e6,
                      args=args)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.export()), encoding="utf-8")
    return tracer.dropped
