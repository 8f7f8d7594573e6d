"""Sticky session sharding: sessions routed across worker processes.

The engine ships :class:`~repro.eval.engine.Job` *specs* — not live
objects — across its process pool; the serving layer reuses exactly that
idiom.  A :class:`~repro.serve.session.SessionConfig` crosses a
``multiprocessing`` pipe, the worker rebuilds the predictor through
:func:`repro.eval.engine.build_predictor` (via the session constructor)
and keeps the live :class:`~repro.serve.session.PredictorSession` local;
only events and prediction records travel afterwards.

Routing is *sticky*: ``crc32(session_id) % shards`` (``crc32`` rather
than ``hash`` — Python's string hashing is salted per process, and the
CI smoke asserts the same session lands on the same shard every time).
Each shard is one worker process with one pipe, serviced strictly in
order, so replies pair with requests positionally: the manager keeps a
FIFO of response futures per shard and a pump thread resolves them
through ``loop.call_soon_threadsafe``.  Telemetry travels through the
environment exactly as in the engine pool, so shard workers write their
own ``kind="serve"`` run manifests.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..obs.metrics import global_registry
from ..obs.tracing import Tracer
from .session import PredictorSession, SessionConfig, finish_session

__all__ = ["ShardManager", "shard_worker"]

#: Wire ops on a shard pipe.
OP_OPEN = "open"
OP_FEED = "feed"
OP_FINISH = "finish"
OP_DISCARD = "discard"
#: Observability op: the worker answers with its metrics-registry
#: snapshot, which the manager merges for the admin endpoint.
OP_METRICS = "metrics"


def shard_worker(pipe: Any) -> None:
    """One shard's loop: serve session ops off the pipe until sentinel.

    Every request gets exactly one ``(status, session_id, value)`` reply,
    in request order — the manager relies on that pairing.  Exceptions
    are answered, never fatal to the shard.
    """
    sessions: Dict[str, PredictorSession] = {}
    traces: Dict[str, Optional[str]] = {}
    while True:
        try:
            message = pipe.recv()
        except (EOFError, OSError):  # manager vanished
            break
        if message is None:
            break
        op, session_id, payload = message
        try:
            if op == OP_OPEN:
                config, trace_id = payload
                sessions[session_id] = PredictorSession(config, session_id)
                traces[session_id] = trace_id
                reply: Tuple[str, str, Any] = ("ok", session_id, None)
            elif op == OP_FEED:
                records = sessions[session_id].feed(payload)
                reply = ("ok", session_id, records)
            elif op == OP_FINISH:
                summary = finish_session(
                    sessions.pop(session_id),
                    trace_id=traces.pop(session_id, None),
                )
                reply = ("ok", session_id, summary)
            elif op == OP_DISCARD:
                sessions.pop(session_id, None)
                traces.pop(session_id, None)
                reply = ("ok", session_id, None)
            elif op == OP_METRICS:
                reply = ("ok", session_id, global_registry().snapshot())
            else:
                reply = ("error", session_id, f"unknown op {op!r}")
        except KeyError:
            reply = ("error", session_id, f"no session {session_id!r}")
        except Exception as error:
            reply = (
                "error", session_id, f"{type(error).__name__}: {error}"
            )
        pipe.send(reply)
    pipe.close()


class _Shard:
    """One worker process, its pipe, and the FIFO of pending futures."""

    def __init__(self, index: int, context: Any) -> None:
        self.index = index
        self.pipe, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=shard_worker, args=(child,),
            name=f"repro-shard-{index}", daemon=True,
        )
        self.pending: Deque["asyncio.Future[Any]"] = deque()
        self.pump: Optional[threading.Thread] = None


class ShardManager:
    """Async facade over the shard worker pool (sticky routing)."""

    def __init__(
        self, shards: int, tracer: Optional[Tracer] = None
    ) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        # Spawn, not fork: the manager process already runs an event loop
        # plus executor and pump threads by the time shards start.
        self._context = multiprocessing.get_context("spawn")
        self._shards = [_Shard(i, self._context) for i in range(shards)]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        # ``is None``, not ``or``: an enabled Tracer is falsy while empty.
        self._tracer = Tracer(enabled=False) if tracer is None else tracer
        #: session id -> trace id, for the shard.hop spans.
        self._traces: Dict[str, Optional[str]] = {}
        self._pending_failed = global_registry().counter(
            "serve.shards.pending_failed"
        )

    def __len__(self) -> int:
        return len(self._shards)

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for shard in self._shards:
            shard.process.start()
            shard.pump = threading.Thread(
                target=self._pump, args=(shard,),
                name=f"repro-shard-pump-{shard.index}", daemon=True,
            )
            shard.pump.start()

    def shard_of(self, session_id: str) -> int:
        """Sticky, process-stable routing for a session id."""
        return zlib.crc32(session_id.encode("utf-8")) % len(self._shards)

    # -- request plumbing ----------------------------------------------------

    def _pump(self, shard: _Shard) -> None:
        """Pipe reader thread: pair replies with pending futures in order."""
        assert self._loop is not None
        while True:
            try:
                status, _session_id, value = shard.pipe.recv()
            except (EOFError, OSError):
                break
            future = shard.pending.popleft()
            if status == "ok":
                self._loop.call_soon_threadsafe(
                    _settle, future, value, None
                )
            else:
                self._loop.call_soon_threadsafe(
                    _settle, future, None, RuntimeError(str(value))
                )
        # Pipe gone (shard died or clean close): nothing will ever answer
        # what is still queued — fail it rather than hang the clients.
        while shard.pending:
            try:
                future = shard.pending.popleft()
            except IndexError:  # pragma: no cover - close() raced us
                break
            self._pending_failed.inc()
            self._loop.call_soon_threadsafe(
                _settle, future, None,
                RuntimeError(f"shard {shard.index} exited"),
            )

    async def _request_shard(
        self, shard: _Shard, op: str, session_id: str, payload: Any = None
    ) -> Any:
        if self._closed:
            raise RuntimeError("shard manager is closed")
        assert self._loop is not None
        future: "asyncio.Future[Any]" = self._loop.create_future()
        # Append strictly before send: the pump pairs replies by FIFO
        # position, and the worker cannot answer a request it has not
        # received yet.
        shard.pending.append(future)
        shard.pipe.send((op, session_id, payload))
        return await future

    async def _request(
        self, op: str, session_id: str, payload: Any = None
    ) -> Any:
        shard = self._shards[self.shard_of(session_id)]
        with self._tracer.span(
            "shard.hop",
            trace=self._traces.get(session_id),
            op=op,
            shard=shard.index,
            session=session_id,
        ):
            return await self._request_shard(shard, op, session_id, payload)

    # -- session ops ---------------------------------------------------------

    async def open(
        self,
        session_id: str,
        config: SessionConfig,
        trace_id: Optional[str] = None,
    ) -> None:
        self._traces[session_id] = trace_id
        try:
            await self._request(OP_OPEN, session_id, (config, trace_id))
        except BaseException:
            self._traces.pop(session_id, None)
            raise

    async def feed(
        self, session_id: str, events: List[tuple]
    ) -> List[tuple]:
        return await self._request(OP_FEED, session_id, events)

    async def finish(self, session_id: str) -> Dict[str, Any]:
        try:
            return await self._request(OP_FINISH, session_id)
        finally:
            self._traces.pop(session_id, None)

    async def discard(self, session_id: str) -> None:
        try:
            await self._request(OP_DISCARD, session_id)
        finally:
            self._traces.pop(session_id, None)

    # -- observability -------------------------------------------------------

    def pending_counts(self) -> List[int]:
        """In-flight (sent, unanswered) request count per shard."""
        return [len(shard.pending) for shard in self._shards]

    async def metrics(self) -> List[Dict[str, Any]]:
        """Every worker's metrics-registry snapshot (one pipe RTT each)."""
        return list(await asyncio.gather(*(
            self._request_shard(shard, OP_METRICS, "")
            for shard in self._shards
        )))

    async def close(self) -> None:
        """Stop workers; fail any still-pending request."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.pipe.send(None)
            except (BrokenPipeError, OSError):
                pass
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            await loop.run_in_executor(None, shard.process.join, 5.0)
            if shard.process.is_alive():  # pragma: no cover - stuck shard
                shard.process.terminate()
            shard.pipe.close()
            while shard.pending:
                future = shard.pending.popleft()
                self._pending_failed.inc()
                _settle(
                    future, None, RuntimeError("shard shut down")
                )


def _settle(
    future: "asyncio.Future[Any]",
    value: Any,
    error: Optional[BaseException],
) -> None:
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)
