"""Closed-loop load generator for serve-stream, built only on the wire protocol.

The benchmark's own client: it imports nothing from the program except
:mod:`repro.serve.protocol`, so edits to ``benchmarks/loadgen.py`` cannot
shift the measurement.  Every frame is encoded during set-up.  While
timing, the generator only sends frames and splits the response stream
into frames; it decodes and checks the responses afterwards.

Each connection replays whole sessions: ``open`` (hybrid predictor), one
binary ``feed`` per :data:`FEED_EVENTS` events of a trace's predictor
stream, then ``finish``.  It is closed-loop: a connection sends its next
request only once it has the reply to the previous one, as a prediction
client that needs its answer would.  Load comes in whole rounds; a round
replays every session once, so every run serves the same mix of traces.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.serve import protocol

FEED_EVENTS = 2000
#: A reply slower than this counts as a timeout and ends the run.
REPLY_TIMEOUT_S = 30.0


class Session:
    """One trace's pre-encoded session frames."""

    def __init__(self, name: str, path: Path) -> None:
        with np.load(path) as data:
            columns = [data[key] for key in ("ps_tag", "ps_ip", "ps_a", "ps_b")]
        self.name = name
        self.columns = columns
        events = np.stack(columns, axis=1).astype("<i8")
        self.open = protocol.encode_json(
            {"type": "open", "factory": "hybrid", "trace": name}
        )
        self.feeds: List[bytes] = []
        self.feed_loads: List[int] = []
        for start in range(0, len(events), FEED_EVENTS):
            chunk = events[start:start + FEED_EVENTS]
            self.feeds.append(
                protocol.encode_frame(protocol.KIND_EVENTS, chunk.tobytes())
            )
            self.feed_loads.append(int(np.count_nonzero(chunk[:, 0] == 1)))
        self.finish = protocol.encode_json({"type": "finish"})


@dataclass
class Attempt:
    """One session as the generator drove it; payloads stay undecoded."""

    session: Session
    started: float
    replies: List[bytes] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    finished: Optional[bytes] = None
    ended: float = 0.0
    lost: bool = False


class _Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = protocol.FrameReader()
        self.attempt: Optional[Attempt] = None
        self.pending = ""
        self.sent_at = 0.0

    def send(self, what: str, frame: bytes) -> None:
        self.pending = what
        self.sent_at = time.perf_counter()
        self.sock.sendall(frame)


@dataclass
class Drive:
    """Everything one timed phase recorded."""

    attempts: List[Attempt]
    first_opened: float
    #: Duration of each round, from its first ``open`` sent to its last
    #: ``finish`` reply.
    rounds: List[float]
    timed_out: bool = False

    @property
    def served_s(self) -> float:
        return sum(self.rounds)

    @property
    def feeds(self) -> int:
        return sum(len(a.replies) for a in self.attempts)

    @property
    def loads(self) -> int:
        return sum(
            sum(a.session.feed_loads[:len(a.replies)]) for a in self.attempts
        )

    @property
    def latencies(self) -> List[float]:
        return [x for a in self.attempts for x in a.latencies]


def first_open(port: int, session: Session) -> float:
    """Open one session and return when the ``opened`` reply arrived."""
    conn = _Connection(port)
    try:
        conn.send("open", session.open)
        while True:
            data = conn.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed before opening")
            for _kind, _payload in conn.reader.push(data):
                return time.perf_counter()
    finally:
        conn.sock.close()


def drive(
    port: int, sessions: Sequence[Session], seconds: float,
    between_rounds: Callable[[], None], connections: int = 2,
) -> Drive:
    """Replay ``sessions`` in whole rounds for about ``seconds``.

    A round replays every session once, in order, over ``connections``
    concurrent connections: a connection that finishes a session opens
    the next one not yet replayed.  The server ties one session to one
    connection, so every session opens a fresh connection.  Rounds repeat
    until the next one would end further past ``seconds`` of serving than
    the last one ended before it.  ``between_rounds`` runs after each
    round, while no request is in flight.
    """
    attempts: List[Attempt] = []
    rounds: List[float] = []
    first_opened = 0.0
    while True:
        started = time.perf_counter()
        opened, ended, timed_out = _round(
            port, sessions, connections, attempts
        )
        first_opened = first_opened or opened
        rounds.append(ended - started)
        if timed_out or any(a.lost for a in attempts):
            return Drive(attempts, first_opened, rounds, timed_out)
        between_rounds()
        served = sum(rounds)
        if served + 0.5 * served / len(rounds) >= seconds:
            return Drive(attempts, first_opened, rounds)


def _round(
    port: int, sessions: Sequence[Session], connections: int,
    attempts: List[Attempt],
) -> "tuple[float, float, bool]":
    """One round; appends its attempts and returns (first ``opened`` reply,
    last reply, timed out)."""
    order = iter(sessions)
    selector = selectors.DefaultSelector()
    first_opened = last = 0.0

    def start() -> bool:
        session = next(order, None)
        if session is None:
            return False
        conn = _Connection(port)
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        conn.attempt = Attempt(session=session, started=time.perf_counter())
        attempts.append(conn.attempt)
        conn.send("open", session.open)
        return True

    def stop(conn: _Connection) -> None:
        selector.unregister(conn.sock)
        conn.sock.close()

    def advance(conn: _Connection) -> None:
        attempt = conn.attempt
        assert attempt is not None
        sent = len(attempt.replies)
        if sent < len(attempt.session.feeds):
            conn.send("feed", attempt.session.feeds[sent])
        else:
            conn.send("finish", attempt.session.finish)

    try:
        active = sum(start() for _ in range(connections))
        while active:
            ready = selector.select(timeout=REPLY_TIMEOUT_S)
            if not ready:
                return first_opened, last, True
            for key, _mask in ready:
                conn = key.data
                data = conn.sock.recv(1 << 20)
                last = time.perf_counter()
                attempt = conn.attempt
                if not data:
                    attempt.lost = True
                    stop(conn)
                    active -= 1
                    continue
                for _kind, payload in conn.reader.push(data):
                    if conn.pending == "open":
                        # A refused open shows up as refused feeds.
                        first_opened = first_opened or last
                        advance(conn)
                    elif conn.pending == "feed":
                        attempt.replies.append(payload)
                        attempt.latencies.append(last - conn.sent_at)
                        advance(conn)
                    else:
                        attempt.finished = payload
                        attempt.ended = last
                        stop(conn)
                        if not start():
                            active -= 1
    finally:
        for key in list(selector.get_map().values()):
            key.fileobj.close()
        selector.close()
    return first_opened, last, False
