"""serve-stream: the prediction server driven closed-loop over 2 connections.

The server is ``python -m repro serve --shards 1``; with one shard the
session work runs in its own spawned worker, so two processes are busy.
Each session replays one picked trace's whole predictor stream with the
hybrid predictor in 2000-event binary feeds; the first feed of a session
runs the batch kernels, later feeds the scalar loop.  A round replays
every picked trace once; between rounds, with the server idle, the
host-speed reference of ``calibrate.py`` is timed.

Set-up (process spawn to the first ``opened`` reply, covering imports and
server plus shard start) is sampled on several fresh servers per run.
After the timed phase the generator reads the manager's and the shard
worker's ``VmHWM`` from ``/proc``, then the server drains.  Only then are
responses decoded and each session's finish metrics compared with an
offline ``run_on_columns`` over the same events.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import calibrate
import loadgen
from common import BENCH, ROOT, WORK, child_env, percentile, vmhwm_mb

#: Host-speed reference timings after each round.
ROUND_REFERENCES = 8

READY = "repro-serve listening on "
ADMIN_READY = "repro-serve admin on "
#: Session counters compared with the offline replay.
COUNTERS = (
    "loads", "predictions", "correct_predictions", "speculative",
    "correct_speculative",
)


class Server:
    """One server process, from spawn to drain."""

    def __init__(self, traced: bool, spans_dir: Optional[Path] = None):
        env = child_env()
        if traced:
            command = [sys.executable, str(BENCH / "launcher.py")]
            env["PERFBENCH_SPANS"] = str(spans_dir)
        else:
            command = [
                sys.executable, "-m", "repro", "serve", "--shards", "1",
                "--port", "0", "--admin-port", "0",
            ]
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._ready_port(READY)
            self.admin_port = self._ready_port(ADMIN_READY)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _ready_port(self, prefix: str) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError(f"server did not come up: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def worker_pid(self) -> int:
        """The spawned shard worker among the manager's children."""
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid == self.process.pid and b"spawn_main" in cmdline:
                return int(entry.name)
        raise RuntimeError("no shard worker process found")

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.process.pid) + vmhwm_mb(self.worker_pid())

    def drain(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def setup_sample(session: loadgen.Session) -> float:
    """Set-up time of one fresh server: spawn to first ``opened``."""
    server = Server(traced=False)
    try:
        return loadgen.first_open(server.port, session) - server.spawned_at
    finally:
        server.drain()


def phase(
    sessions: List[loadgen.Session], seconds: float, traced: bool,
    meter: calibrate.Meter, spans_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Start a server, drive it for ``seconds``, scrape, drain."""
    server = Server(traced, spans_dir)
    try:
        drive = loadgen.drive(
            server.port, sessions, seconds,
            lambda: meter.sample(ROUND_REFERENCES),
        )
        out: Dict[str, Any] = {
            "drive": drive,
            "setup_s": drive.first_opened - server.spawned_at,
            "peak_rss_mb": server.peak_rss_mb(),
        }
        if traced:
            from repro.obs.admin import fetch_admin

            out["metrics"] = fetch_admin(
                "127.0.0.1", server.admin_port, "metrics", 30.0
            )["metrics"]
    finally:
        server.drain()
    return out


class Checker:
    """Offline ``run_on_columns`` replays to check served sessions against."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, int], List[int]] = {}

    def expected(self, session: loadgen.Session, events: int) -> List[int]:
        key = (session.name, events)
        if key not in self._cache:
            from repro.eval.engine import build_predictor
            from repro.eval.metrics import PredictorMetrics
            from repro.serve.session import SessionConfig, run_on_columns
            from repro.trace.trace import PredictorStream

            config = SessionConfig(factory="hybrid", trace=session.name)
            stream = PredictorStream(
                *(column[:events] for column in session.columns)
            )
            metrics = PredictorMetrics()
            run_on_columns(build_predictor(config.to_job()), stream, metrics)
            self._cache[key] = [getattr(metrics, name) for name in COUNTERS]
        return self._cache[key]

    def failures(self, drive: loadgen.Drive) -> int:
        """Failed feeds: bad replies, plus every feed of a bad session."""
        from repro.serve import protocol

        failed = 0
        for attempt in drive.attempts:
            session = attempt.session
            bad_session = attempt.lost or attempt.finished is None
            bad_feeds = 0
            for index, payload in enumerate(attempt.replies):
                reply = protocol.decode_json(payload)
                if (
                    reply.get("type") != "predictions"
                    or reply.get("count") != session.feed_loads[index]
                    or len(reply.get("records") or ()) != reply.get("count")
                ):
                    bad_feeds += 1
            if not bad_session:
                done = protocol.decode_json(attempt.finished)
                served = done.get("metrics") or {}
                events = min(
                    len(session.columns[0]),
                    loadgen.FEED_EVENTS * len(attempt.replies),
                )
                bad_session = (
                    done.get("type") != "metrics"
                    or [served.get(name) for name in COUNTERS]
                    != self.expected(session, events)
                )
            failed += max(1, len(attempt.replies)) if bad_session else bad_feeds
        if drive.timed_out:
            failed += 1
        return failed


def run(
    names: List[str], paths: Dict[str, Path], seconds: float, trace: bool,
    setup_samples: int, setup_references: int, seed: int,
    meter: calibrate.Meter,
) -> Dict[str, Any]:
    sessions = [loadgen.Session(name, paths[name]) for name in names]
    checker = Checker()
    if not trace:
        setups = []
        for _ in range(setup_samples - 1):
            meter.sample(setup_references)
            setups.append(setup_sample(sessions[0]))
        meter.sample(setup_references)
        main = phase(sessions, seconds, False, meter)
        drive = main["drive"]
        setups.append(main["setup_s"])
        scale = calibrate.factor(meter.samples)
        return {
            "e2e": _e2e(drive, setups, main["peak_rss_mb"], scale),
            "factor": scale,
            "attempted": drive.feeds,
            "failed": checker.failures(drive),
        }
    meter.sample(ROUND_REFERENCES)
    plain = phase(sessions, seconds / 2, False, meter)
    spans_dir = WORK / f"spans-serve-{seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    traced = phase(sessions, seconds / 2, True, meter, spans_dir)
    drives = [plain["drive"], traced["drive"]]
    return {
        "layers": _layers(plain, traced, spans_dir, seed),
        "factor": calibrate.factor(meter.samples),
        "attempted": sum(d.feeds for d in drives),
        "failed": sum(checker.failures(d) for d in drives),
    }


def _loads_per_s(drive: loadgen.Drive) -> float:
    return drive.loads / drive.served_s


def _e2e(
    drive: loadgen.Drive, setups: List[float], peak_rss_mb: float,
    scale: float,
) -> Dict[str, Tuple[float, int]]:
    latencies = drive.latencies
    return {
        "wall_s": (median(drive.rounds) * scale, len(drive.rounds)),
        "loads_per_s": (_loads_per_s(drive) / scale, drive.loads),
        "op_p50_ms": (median(latencies) * 1e3 * scale, len(latencies)),
        "op_p99_ms": (
            percentile(latencies, 0.99) * 1e3 * scale, len(latencies)
        ),
        "setup_s": (median(setups) * scale, len(setups)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def _layers(
    plain: Dict[str, Any], traced: Dict[str, Any], spans_dir: Path, seed: int
) -> Dict[str, Any]:
    """Per-layer numbers of the traced phase (see ``ledger``)."""
    import ledger
    from repro.obs.metrics import histogram_percentile

    spans: List[ledger.Span] = []
    for path in sorted(spans_dir.glob("*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    dropped = ledger.write_chrome(
        spans, WORK / f"ledger-serve-stream-{seed}.json"
    )
    totals = ledger.self_times(spans)
    feeds = [s for s in spans if s[0] == "session.feed"]
    kernel = [s[2] for s in feeds if s[4]["kernel"]]
    scalar = [s[2] for s in feeds if not s[4]["kernel"]]
    decode = [s for s in spans if s[0] == "protocol.decode"]
    encode = [
        s for s in spans
        if s[0] == "protocol.encode" and s[4][0] == "predictions"
    ]
    hops = sorted(
        (s for s in spans if s[0] == "shard.hop"), key=lambda s: s[1]
    )
    # Pair the k-th feed hop of a session with its k-th worker feed.
    worker: Dict[Tuple[str, int], float] = {
        (s[4]["session"], s[4]["index"]): s[2] for s in feeds
    }
    seen: Dict[str, int] = {}
    overhead = []
    for hop in hops:
        index = seen.get(hop[4], 0)
        seen[hop[4]] = index + 1
        if (hop[4], index) in worker:
            overhead.append(hop[2] - worker[(hop[4], index)])
    snapshot = traced["metrics"]
    counters = snapshot["counters"]
    wait = snapshot["histograms"]["serve.queue.wait_s"]
    dispatch = {"dispatched": 0, "fallback": 0, "declined": 0}
    for name, value in counters.items():
        outcome = name.rsplit(".", 1)[1]
        if name.startswith("kernels.") and outcome in dispatch:
            dispatch[outcome] += int(value)
    drive = traced["drive"]
    round_trips = sum(drive.latencies)
    served = (
        sum(s[2] for s in decode) + sum(s[2] for s in encode)
        + sum(s[2] for s in hops) + float(wait["sum"])
    )
    return {
        "self_s": totals,
        "jobs": 0,
        "scalar_loads": sum(s[4]["loads"] for s in feeds if not s[4]["kernel"]),
        "timing_loads": 0,
        "dispatch": dispatch,
        "decode_ms": median([s[2] for s in decode]) * 1e3,
        "encode_ms": median([s[2] for s in encode]) * 1e3,
        "bytes_in": median([s[4] for s in decode]),
        "bytes_out": median([s[4][1] for s in encode]),
        "queue_wait_p50_ms": histogram_percentile(wait, 0.50) * 1e3,
        "queue_wait_p99_ms": histogram_percentile(wait, 0.99) * 1e3,
        "hop_p50_ms": median([s[2] for s in hops]) * 1e3,
        "hop_overhead_ms": median(overhead) * 1e3,
        "feed_kernel_ms": median(kernel) * 1e3,
        "feed_scalar_ms": median(scalar) * 1e3,
        "kernel_feed_ratio": len(kernel) / len(feeds),
        "traced_s": drive.served_s,
        "coverage": served / round_trips,
        "overhead_pct": 100.0 * (
            _loads_per_s(plain["drive"]) / _loads_per_s(drive) - 1.0
        ),
        "spans": len(spans),
        "dropped": dropped,
    }
