"""Asyncio prediction server: ``python -m repro serve``.

One TCP connection = one prediction session.  A client *opens* a session
(naming a predictor factory and overrides), *feeds* chunks of the event
stream (JSON or packed binary frames, see :mod:`repro.serve.protocol`)
and receives one prediction record per dynamic load, then *finishes* to
collect the session's metrics — the same counters an offline
:func:`repro.eval.runner.run_on_columns` run would have produced.

Operationally the server is built from three pieces:

* **Micro-batching executor** — feeds from all connections funnel into
  one bounded :class:`asyncio.Queue`; a worker task drains up to
  ``max_batch`` pending feeds per tick and executes them in a single
  thread-pool hop (the CPU-bound session work never blocks the event
  loop, and concurrent first-feeds each reach the numpy batch kernels
  when ``supports_batch`` holds).
* **Backpressure and timeouts** — a full queue rejects the feed with an
  ``overloaded`` error instead of buffering without bound; a feed that
  exceeds ``session_timeout_s`` in queue+execution is answered with a
  ``timeout`` error and its session is dropped.  Connections that vanish
  mid-session count as dropped sessions in the stats.
* **Graceful drain** — SIGTERM (and SIGINT) stops accepting connections,
  lets queued feeds finish, answers them, then closes.  In-flight
  sessions that never reached ``finish`` are counted dropped, so a clean
  load-generator run asserts ``sessions_dropped == 0`` end to end.

With ``shards > 0`` sessions are routed (sticky, by session id) to
worker processes via :mod:`repro.serve.sharding`, reusing the engine's
spec-over-the-boundary job machinery; the default in-process mode keeps
pytest and debugging single-process.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.flight import FlightRecorder
from ..obs.manifest import perf_clock
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.tracing import Tracer, mint_trace_id
from . import protocol
from .protocol import (
    KIND_EVENTS,
    KIND_JSON,
    FrameReader,
    ProtocolError,
)
from .session import PredictorSession, SessionConfig, finish_session

__all__ = [
    "PredictionServer",
    "ServeConfig",
    "ServeStats",
]


@dataclass(frozen=True)
class ServeConfig:
    """Server tuning knobs (CLI flags; no environment reads here)."""

    host: str = "127.0.0.1"
    port: int = 8377
    #: Hard cap on concurrently open sessions; opens beyond it are refused.
    max_sessions: int = 256
    #: Bound of the shared feed queue — the backpressure valve.
    queue_depth: int = 64
    #: Maximum feeds drained into one executor hop.
    max_batch: int = 16
    #: Per-feed budget (queueing + execution), seconds.
    session_timeout_s: float = 30.0
    #: Worker processes for session execution; 0 = in-process.
    shards: int = 0
    max_frame: int = protocol.MAX_FRAME
    #: Admin (observability) endpoint port: ``None`` = no admin listener,
    #: ``0`` = ephemeral (the bound port is printed on its ready line).
    admin_port: Optional[int] = None
    #: Flight-recorder postmortem directory; ``None`` keeps the per-session
    #: rings in memory only (no postmortems written on bad session ends).
    flight_dir: Optional[str] = None
    #: Completed-span ring capacity of the server's tracer.
    trace_capacity: int = 4096


@dataclass
class ServeStats:
    """Server-lifetime counters, exposed over the ``stats`` message."""

    sessions_opened: int = 0
    sessions_finished: int = 0
    sessions_dropped: int = 0
    feeds: int = 0
    loads: int = 0
    kernel_feeds: int = 0
    rejected_feeds: int = 0
    timeouts: int = 0
    protocol_errors: int = 0

    def snapshot(self, active: int) -> Dict[str, Any]:
        return {
            "sessions_opened": self.sessions_opened,
            "sessions_finished": self.sessions_finished,
            "sessions_dropped": self.sessions_dropped,
            "sessions_active": active,
            "feeds": self.feeds,
            "loads": self.loads,
            "kernel_feeds": self.kernel_feeds,
            "rejected_feeds": self.rejected_feeds,
            "timeouts": self.timeouts,
            "protocol_errors": self.protocol_errors,
        }


@dataclass
class _Connection:
    """Per-connection serving state."""

    peer: str
    session_id: str = ""
    session: Optional[PredictorSession] = None
    #: Sharded sessions live in a worker; only the id is held here.
    sharded: bool = False
    finished: bool = False
    #: Trace id for the session's spans (client-supplied or minted).
    trace_id: str = ""


#: One queued feed: (connection, events, response future, enqueue stamp).
_FeedItem = Tuple[
    _Connection, List[tuple], "asyncio.Future[List[tuple]]", float
]


class PredictionServer:
    """The asyncio serving core; lifecycle: ``start`` → ... → ``shutdown``."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self._sessions_active = 0
        self._session_counter = 0
        self._queue: "asyncio.Queue[Optional[_FeedItem]]" = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._shards: Optional[Any] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional["asyncio.Task[None]"] = None
        self._draining = False
        self._closed = asyncio.Event()
        # Observability plane: registry + tracer + flight recorder.  All
        # hooks fire per feed/batch/session — never per event — so the
        # instruments stay off the byte-level hot path.
        self.registry = global_registry()
        self.tracer = Tracer(capacity=self.config.trace_capacity)
        self.flight = FlightRecorder()
        self._admin: Optional[Any] = None
        self._m_queue_depth = self.registry.gauge("serve.queue.depth")
        self._m_queue_wait = self.registry.histogram("serve.queue.wait_s")
        self._m_batch_occupancy = self.registry.histogram(
            "serve.batch.occupancy",
            bounds=tuple(float(1 << i) for i in range(7)),
        )
        self._m_sessions_active = self.registry.gauge(
            "serve.sessions.active"
        )
        self._m_sessions_dropped = self.registry.counter(
            "serve.sessions.dropped"
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def admin_port(self) -> Optional[int]:
        """The admin endpoint's bound port, if one is configured."""
        return self._admin.port if self._admin is not None else None

    async def start(self) -> None:
        if self.config.shards > 0:
            from .sharding import ShardManager

            self._shards = ShardManager(
                self.config.shards, tracer=self.tracer
            )
            await self._shards.start()
        self._worker_task = asyncio.ensure_future(self._batch_worker())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.admin_port is not None:
            from ..obs.admin import AdminServer

            self._admin = AdminServer(
                health=self._admin_health,
                metrics=self._admin_metrics,
                spans=self._admin_spans,
                host=self.config.host,
                port=self.config.admin_port,
                max_frame=self.config.max_frame,
            )
            await self._admin.start()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (POSIX event loops only)."""
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Stop accepting, drain queued feeds, then close everything."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._admin is not None:
            await self._admin.close()
        # Drain: the sentinel is processed strictly after every queued
        # feed, so by the time the worker exits all answers are out.
        await self._queue.put(None)
        if self._worker_task is not None:
            await self._worker_task
        if self._shards is not None:
            await self._shards.close()
        self._executor.shutdown(wait=True)
        self._closed.set()

    # -- observability plane -------------------------------------------------

    def _set_active(self) -> None:
        self._m_sessions_active.set(float(self._sessions_active))

    def _dump_postmortem(
        self, connection: _Connection, reason: str
    ) -> Optional[Path]:
        """Persist (or at least free) a dead session's flight ring."""
        if not connection.session_id:
            return None
        if not self.config.flight_dir:
            self.flight.discard(connection.session_id)
            return None
        return self.flight.dump(
            connection.session_id,
            reason,
            Path(self.config.flight_dir),
            context={
                "peer": connection.peer,
                "trace": connection.trace_id or None,
                "stats": self.stats.snapshot(self._sessions_active),
            },
        )

    async def _admin_health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "stats": self.stats.snapshot(self._sessions_active),
        }

    async def _admin_metrics(self) -> Dict[str, Any]:
        # Scrape-time gauges: per-shard in-flight is just the pending
        # FIFO length, so it costs nothing between scrapes.
        if self._shards is not None:
            for index, pending in enumerate(self._shards.pending_counts()):
                self.registry.gauge(
                    f"serve.shard.{index}.in_flight"
                ).set(float(pending))
        merged = MetricsRegistry()
        merged.merge(self.registry.snapshot())
        if self._shards is not None:
            for snapshot in await self._shards.metrics():
                merged.merge(snapshot)
        return {
            "metrics": merged.snapshot(),
            "spans_buffered": len(self.tracer),
            "spans_dropped": self.tracer.dropped,
        }

    async def _admin_spans(self) -> Dict[str, Any]:
        return self.tracer.export()

    # -- micro-batching executor ---------------------------------------------

    async def _batch_worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                return
            batch: List[_FeedItem] = [item]
            while len(batch) < self.config.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    # Keep the drain sentinel behind this final batch.
                    self._queue.put_nowait(None)
                    break
                batch.append(extra)
            self._m_queue_depth.set(float(self._queue.qsize()))
            self._m_batch_occupancy.observe(float(len(batch)))
            now = perf_clock()
            for connection, _events, _future, enqueued in batch:
                wait_s = max(0.0, now - enqueued)
                self._m_queue_wait.observe(wait_s)
                self.tracer.record(
                    "serve.feed.queue_wait",
                    start_us=enqueued * 1e6,
                    dur_us=wait_s * 1e6,
                    trace=connection.trace_id or None,
                    args={"session": connection.session_id},
                )
            with self.tracer.span(
                "serve.batch.exec",
                batch=len(batch),
                sharded=self._shards is not None,
            ):
                if self._shards is not None:
                    await self._execute_sharded(batch)
                else:
                    await loop.run_in_executor(
                        self._executor, self._execute_local, loop, batch
                    )

    def _execute_local(
        self, loop: asyncio.AbstractEventLoop, batch: List[_FeedItem]
    ) -> None:
        for connection, events, future, _enqueued in batch:
            session = connection.session
            try:
                assert session is not None
                records = session.feed(events)
            except BaseException as error:  # answered, not fatal
                loop.call_soon_threadsafe(
                    _resolve_error, future, error
                )
            else:
                loop.call_soon_threadsafe(_resolve, future, records)

    async def _execute_sharded(self, batch: List[_FeedItem]) -> None:
        assert self._shards is not None

        async def one(item: _FeedItem) -> None:
            connection, events, future, _enqueued = item
            try:
                records = await self._shards.feed(
                    connection.session_id, events
                )
            except BaseException as error:
                _resolve_error(future, error)
            else:
                _resolve(future, records)

        await asyncio.gather(*(one(item) for item in batch))

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        connection = _Connection(peer=str(peername))
        frames = FrameReader(self.config.max_frame)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for kind, payload in frames.push(data):
                    await self._dispatch(connection, kind, payload, writer)
                await writer.drain()
        except (ProtocolError, ConnectionResetError) as error:
            self.stats.protocol_errors += 1
            await self._try_send(
                writer,
                protocol.error_message("protocol", str(error)),
            )
        finally:
            await self._teardown(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _teardown(self, connection: _Connection) -> None:
        """Account for a closed connection; unfinished sessions drop."""
        if connection.session_id and not connection.finished:
            self.stats.sessions_dropped += 1
            self._sessions_active -= 1
            self._m_sessions_dropped.inc()
            self._set_active()
            self.flight.record(
                connection.session_id, "drop", peer=connection.peer
            )
            self._dump_postmortem(connection, "drop")
            if self._shards is not None and connection.sharded:
                await self._shards.discard(connection.session_id)
        connection.session = None
        connection.session_id = ""

    async def _dispatch(
        self,
        connection: _Connection,
        kind: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if kind == KIND_EVENTS:
            await self._on_feed(
                connection, protocol.decode_events(payload), writer
            )
            return
        if kind != KIND_JSON:
            raise ProtocolError(f"unknown frame kind {kind}")
        message = protocol.decode_json(payload)
        mtype = message.get("type")
        if mtype == "open":
            await self._on_open(connection, message, writer)
        elif mtype == "feed":
            await self._on_feed(
                connection,
                protocol.parse_feed_events(KIND_JSON, payload),
                writer,
            )
        elif mtype == "finish":
            await self._on_finish(connection, writer)
        elif mtype == "ping":
            self._send(writer, {"type": "pong"})
        elif mtype == "stats":
            self._send(
                writer,
                {
                    "type": "stats",
                    **self.stats.snapshot(self._sessions_active),
                },
            )
        else:
            raise ProtocolError(f"unknown message type {mtype!r}")

    # -- message handlers -------------------------------------------------------

    async def _on_open(
        self,
        connection: _Connection,
        message: Dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        if connection.session_id:
            self._send(
                writer,
                protocol.error_message(
                    "session", "connection already has an open session"
                ),
            )
            return
        if self._draining:
            self._send(
                writer,
                protocol.error_message("draining", "server is shutting down"),
            )
            return
        if self._sessions_active >= self.config.max_sessions:
            self.stats.rejected_feeds += 1
            self._send(
                writer,
                protocol.error_message(
                    "overloaded",
                    f"session limit {self.config.max_sessions} reached",
                ),
            )
            return
        try:
            config = SessionConfig.from_dict(message)
        except (TypeError, ValueError) as error:
            self._send(
                writer, protocol.error_message("config", str(error))
            )
            return
        # The trace id enters the system here: a client-supplied "trace"
        # field wins (so loadgen request ids join server-side spans),
        # otherwise the server mints one.
        trace_id = str(message.get("trace") or "") or mint_trace_id()
        self._session_counter += 1
        session_id = f"s{self._session_counter}"
        # Reserve the session slot *before* awaiting: the admission
        # check above is stale after any suspension, and incrementing
        # post-await let concurrent opens overshoot max_sessions.
        self._sessions_active += 1
        try:
            if self._shards is not None:
                await self._shards.open(session_id, config, trace_id)
                connection.sharded = True
            else:
                connection.session = PredictorSession(config, session_id)
        except Exception as error:
            self._sessions_active -= 1  # release the reservation
            self._send(
                writer, protocol.error_message("config", str(error))
            )
            return
        connection.session_id = session_id
        connection.finished = False
        connection.trace_id = trace_id
        self.stats.sessions_opened += 1
        self._set_active()
        self.flight.record(
            session_id,
            "open",
            factory=config.factory,
            trace=trace_id,
            peer=connection.peer,
        )
        self._send(
            writer,
            {
                "type": "opened",
                "session": session_id,
                "trace": trace_id,
                "shard": (
                    self._shards.shard_of(session_id)
                    if self._shards is not None
                    else None
                ),
            },
        )

    async def _on_feed(
        self,
        connection: _Connection,
        events: List[tuple],
        writer: asyncio.StreamWriter,
    ) -> None:
        if not connection.session_id or connection.finished:
            self._send(
                writer,
                protocol.error_message("session", "no open session to feed"),
            )
            return
        future: "asyncio.Future[List[tuple]]" = (
            asyncio.get_running_loop().create_future()
        )
        enqueued = perf_clock()
        try:
            self._queue.put_nowait((connection, events, future, enqueued))
        except asyncio.QueueFull:
            self.stats.rejected_feeds += 1
            self.flight.record(
                connection.session_id, "feed.rejected", events=len(events)
            )
            self._send(
                writer,
                protocol.error_message(
                    "overloaded",
                    f"feed queue depth {self.config.queue_depth} exceeded",
                ),
            )
            return
        self._m_queue_depth.set(float(self._queue.qsize()))
        self.flight.record(
            connection.session_id, "feed.enqueued", events=len(events)
        )
        try:
            records = await asyncio.wait_for(
                future, timeout=self.config.session_timeout_s
            )
        except asyncio.TimeoutError:
            # The session may still be mid-execution in the worker; its
            # state is no longer trustworthy for this client — drop it.
            self.stats.timeouts += 1
            self.stats.sessions_dropped += 1
            self._sessions_active -= 1
            self._m_sessions_dropped.inc()
            self._set_active()
            connection.finished = True
            self.flight.record(
                connection.session_id,
                "feed.timeout",
                budget_s=self.config.session_timeout_s,
                events=len(events),
            )
            self._dump_postmortem(connection, "timeout")
            self._send(
                writer,
                protocol.error_message(
                    "timeout",
                    f"feed exceeded {self.config.session_timeout_s}s budget",
                ),
            )
            return
        except Exception as error:
            self.flight.record(
                connection.session_id, "feed.error", detail=str(error)
            )
            self._send(writer, protocol.error_message("session", str(error)))
            return
        self.stats.feeds += 1
        self.stats.loads += len(records)
        self.flight.record(
            connection.session_id, "feed.answered", records=len(records)
        )
        self._send(
            writer,
            {
                "type": "predictions",
                "session": connection.session_id,
                "count": len(records),
                "records": [list(record) for record in records],
            },
        )

    async def _on_finish(
        self, connection: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        if not connection.session_id or connection.finished:
            self._send(
                writer,
                protocol.error_message("session", "no open session to finish"),
            )
            return
        if self._shards is not None and connection.sharded:
            summary = await self._shards.finish(connection.session_id)
        else:
            assert connection.session is not None
            summary = finish_session(
                connection.session,
                trace_id=connection.trace_id or None,
                flight_dir=self.config.flight_dir,
            )
        connection.finished = True
        self._sessions_active -= 1
        self.stats.sessions_finished += 1
        self.stats.kernel_feeds += int(summary.get("kernel_feeds") or 0)
        self._set_active()
        self.flight.discard(connection.session_id)
        self._send(
            writer,
            {
                "type": "metrics",
                "session": connection.session_id,
                **summary,
            },
        )

    # -- plumbing ----------------------------------------------------------------

    def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        if message.get("type") == "error":
            # Per-error-code tallies ride the uniform error shape, so
            # every refusal path is counted without instrumenting each.
            self.registry.counter(
                f"serve.errors.{message.get('code', 'unknown')}"
            ).inc()
        writer.write(protocol.encode_json(message))

    async def _try_send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        try:
            self._send(writer, message)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass


def _resolve(future: "asyncio.Future[Any]", value: Any) -> None:
    if not future.done():
        future.set_result(value)


def _resolve_error(future: "asyncio.Future[Any]", error: BaseException) -> None:
    if not future.done():
        future.set_exception(error)


async def serve(config: ServeConfig, ready_line: bool = True) -> None:
    """Run the server until a drain signal arrives (the CLI entry point)."""
    server = PredictionServer(config)
    await server.start()
    server.install_signal_handlers()
    if ready_line:
        # The loadgen and the CI smoke test wait for this exact line.
        print(
            f"repro-serve listening on {config.host}:{server.port}",
            flush=True,
        )
        if server.admin_port is not None:
            # Second ready line, same contract: scrapers wait for it.
            print(
                f"repro-serve admin on {config.host}:{server.admin_port}",
                flush=True,
            )
    await server.wait_closed()
    snapshot = server.stats.snapshot(0)
    print(
        "repro-serve drained:"
        f" opened={snapshot['sessions_opened']}"
        f" finished={snapshot['sessions_finished']}"
        f" dropped={snapshot['sessions_dropped']}",
        flush=True,
    )
