"""Admin endpoint end-to-end: scrape, trace join, timeout postmortems.

Same conventions as ``test_serve_server.py``: plain ``asyncio.run``
inside synchronous tests, ephemeral ports everywhere.  The blocking
``fetch_admin`` client runs in a worker thread via ``asyncio.to_thread``
so it exercises the real socket path against the live listener.
"""

import asyncio
import json
import threading

import pytest

from repro.eval.metrics import PredictorMetrics
from repro.obs.admin import AdminServer, fetch_admin
from repro.obs.flight import validate_postmortem
from repro.obs.metrics import global_registry
from repro.obs.tracing import validate_trace_export
from repro.serve import protocol
from repro.serve import server as server_mod
from repro.serve.server import PredictionServer, ServeConfig
from repro.verify.fuzz import generate_events

EVENTS = [tuple(e) for e in generate_events("mixed", 0, 200)]


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Server instruments resolve from the process-global registry."""
    global_registry().reset()
    yield
    global_registry().reset()


class _Client:
    def __init__(self, port):
        self.port = port
        self.frames = protocol.FrameReader()

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def rpc(self, frame):
        self.writer.write(frame)
        await self.writer.drain()
        while True:
            data = await self.reader.read(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            for _kind, payload in self.frames.push(data):
                return protocol.decode_json(payload)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _open_msg(**extra):
    return protocol.encode_json(
        {"type": "open", "factory": "stride", **extra}
    )


async def _start(config):
    server = PredictionServer(config)
    await server.start()
    return server


async def _scrape(port, request):
    return await asyncio.to_thread(fetch_admin, "127.0.0.1", port, request)


class _BlockingSession:
    """Stub whose ``feed`` blocks until released (timeout tests)."""

    instances = []
    backend = "python"

    def __init__(self, config, session_id=""):
        self.config = config
        self.session_id = session_id
        self.release = threading.Event()
        self.metrics = PredictorMetrics(name="stub", suite="serve")
        _BlockingSession.instances.append(self)

    def feed(self, events, observer=None):
        assert self.release.wait(10), "test never released the stub"
        return []

    def finish(self):
        return self.metrics


class TestAdminServerUnit:
    def test_unknown_request_answers_error(self):
        async def scenario():
            async def body():
                return {"ok": True}

            admin = AdminServer(health=body, metrics=body, spans=body)
            await admin.start()
            try:
                reply = await _scrape(admin.port, "bogus")
                assert reply["type"] == "error"
                assert reply["code"] == "admin"
                reply = await _scrape(admin.port, "health")
                assert reply == {"type": "health", "ok": True}
            finally:
                await admin.close()

        asyncio.run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            async def body():
                return {}

            admin = AdminServer(health=body, metrics=body, spans=body)
            await admin.start()
            await admin.close()
            await admin.close()

        asyncio.run(scenario())


class TestAdminEndToEnd:
    def test_scrape_joins_client_trace_ids(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")

        async def scenario():
            server = await _start(ServeConfig(port=0, admin_port=0))
            assert server.admin_port is not None
            client = await _Client(server.port).connect()
            opened = await client.rpc(_open_msg(trace="lg0-7"))
            assert opened["type"] == "opened"
            assert opened["trace"] == "lg0-7"  # client-supplied id wins
            for _ in range(3):
                reply = await client.rpc(protocol.encode_events(EVENTS))
                assert reply["type"] == "predictions"
            finish = await client.rpc(
                protocol.encode_json({"type": "finish"})
            )
            assert finish["type"] == "metrics"

            health = await _scrape(server.admin_port, "health")
            assert health["status"] == "ok"
            assert health["stats"]["sessions_finished"] == 1

            answer = await _scrape(server.admin_port, "metrics")
            metrics = answer["metrics"]
            assert metrics["counters"]["serve.sessions.dropped"] == 0
            wait = metrics["histograms"]["serve.queue.wait_s"]
            assert wait["count"] == 3
            occupancy = metrics["histograms"]["serve.batch.occupancy"]
            assert occupancy["count"] >= 1

            spans = await _scrape(server.admin_port, "spans")
            document = {
                "displayTimeUnit": spans["displayTimeUnit"],
                "traceEvents": spans["traceEvents"],
            }
            assert validate_trace_export(document) == []
            waits = [
                e for e in document["traceEvents"]
                if e["name"] == "serve.feed.queue_wait"
            ]
            assert len(waits) == 3
            assert all(e["args"]["trace"] == "lg0-7" for e in waits)
            assert any(
                e["name"] == "serve.batch.exec"
                for e in document["traceEvents"]
            )
            await client.close()
            await server.shutdown()

        asyncio.run(scenario())

    def test_server_without_admin_has_no_port(self):
        async def scenario():
            server = await _start(ServeConfig(port=0))
            assert server.admin_port is None
            await server.shutdown()

        asyncio.run(scenario())

    def test_sharded_scrape_merges_worker_snapshots(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")

        async def scenario():
            server = await _start(
                ServeConfig(port=0, shards=1, admin_port=0)
            )
            client = await _Client(server.port).connect()
            opened = await client.rpc(_open_msg())
            assert opened["type"] == "opened"
            assert opened["shard"] == 0
            reply = await client.rpc(protocol.encode_events(EVENTS))
            assert reply["type"] == "predictions"
            finish = await client.rpc(
                protocol.encode_json({"type": "finish"})
            )
            assert finish["type"] == "metrics"

            answer = await _scrape(server.admin_port, "metrics")
            metrics = answer["metrics"]
            # Scrape-time per-shard occupancy gauge from the manager...
            assert "serve.shard.0.in_flight" in metrics["gauges"]
            # ...plus counters only the worker process records: the
            # kernel dispatch tallies from the session's feed.
            assert any(
                name.startswith("kernels.")
                for name in metrics["counters"]
            ), metrics["counters"]
            # The manager records one shard.hop span per round trip.
            spans = await _scrape(server.admin_port, "spans")
            assert any(
                e["name"] == "shard.hop" for e in spans["traceEvents"]
            )
            await client.close()
            await server.shutdown()

        asyncio.run(scenario())


class TestTimeoutPostmortem:
    def test_timed_out_session_dumps_postmortem(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            server_mod, "PredictorSession", _BlockingSession
        )
        monkeypatch.setattr(_BlockingSession, "instances", [])

        async def scenario():
            server = await _start(ServeConfig(
                port=0,
                session_timeout_s=0.2,
                flight_dir=str(tmp_path),
                admin_port=0,
            ))
            client = await _Client(server.port).connect()
            opened = await client.rpc(_open_msg(trace="pm-1"))
            assert opened["type"] == "opened"
            reply = await client.rpc(protocol.encode_events(EVENTS))
            assert reply["type"] == "error"
            assert reply["code"] == "timeout"
            for stub in _BlockingSession.instances:
                stub.release.set()
            await client.close()
            await server.shutdown()
            return opened["session"]

        session_id = asyncio.run(scenario())
        (path,) = tmp_path.glob("postmortem-*.json")
        assert path.name == f"postmortem-{session_id}-timeout.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate_postmortem(document) == []
        assert document["reason"] == "timeout"
        kinds = [e["kind"] for e in document["events"]]
        assert kinds[0] == "open"
        assert "feed.timeout" in kinds
        assert document["context"]["trace"] == "pm-1"

    def test_clean_finish_leaves_no_postmortem(self, tmp_path):
        async def scenario():
            server = await _start(ServeConfig(
                port=0, flight_dir=str(tmp_path)
            ))
            client = await _Client(server.port).connect()
            assert (await client.rpc(_open_msg()))["type"] == "opened"
            reply = await client.rpc(protocol.encode_events(EVENTS))
            assert reply["type"] == "predictions"
            finish = await client.rpc(
                protocol.encode_json({"type": "finish"})
            )
            assert finish["type"] == "metrics"
            assert len(server.flight) == 0  # ring freed on clean finish
            await client.close()
            await server.shutdown()

        asyncio.run(scenario())
