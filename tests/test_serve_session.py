"""PredictorSession facade: served-vs-offline parity, isolation, warm-up.

The acceptance bar for the serving layer is *byte-identical* predictions:
whatever a client receives over the wire must equal what an offline
``run_on_columns`` pass over the same events would have produced — on
both backends, and regardless of how the stream is chunked into feeds.
"""

import itertools

import numpy as np
import pytest

from repro.eval.engine import build_predictor
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_on_stream, run_predictor
from repro.serve.session import PredictorSession, SessionConfig
from repro.trace.trace import PredictorStream
from repro.verify.fuzz import generate_events

N_EVENTS = 600

#: Feed split points: even 150-event chunks, and uneven cuts that leave
#: one-event feeds at both ends of the stream.
EVEN_CUTS = tuple(range(150, N_EVENTS, 150))
UNEVEN_CUTS = (1, 2, 151, 449, N_EVENTS - 1)

#: (backend, feed form, cuts); tuple-list feeds at even cuts keep the
#: bare backend id.
CHUNKED_CASES = [
    pytest.param(backend, form, cuts, id="-".join([backend, *extra]))
    for backend in ("python", "numpy")
    for form, cuts, extra in (
        ("tuples", EVEN_CUTS, []),
        ("stream", EVEN_CUTS, ["stream"]),
        ("tuples", UNEVEN_CUTS, ["uneven"]),
        ("stream", UNEVEN_CUTS, ["stream", "uneven"]),
    )
]


def _events(profile="mixed", seed=0, n=N_EVENTS):
    return [tuple(event) for event in generate_events(profile, seed, n)]


def _feeds(events, form, cuts):
    """Split ``events`` at ``cuts``; ``stream`` packs int64 columns."""
    bounds = (0, *cuts, len(events))
    for start, stop in zip(bounds, bounds[1:]):
        chunk = events[start:stop]
        if form == "stream":
            chunk = PredictorStream(*(
                np.asarray(col, dtype=np.int64) for col in zip(*chunk)
            ))
        yield chunk


def offline_records(factory, events, warmup=0, overrides=None):
    """Reference: scalar offline run with a capturing observer."""
    from repro.eval.engine import Job

    predictor = build_predictor(Job(
        trace="", factory=factory, overrides=dict(overrides or {}),
    ))
    metrics = PredictorMetrics(name="offline", trace="", suite="serve")
    captured = []

    def _capture(ip, offset, actual, prediction):
        captured.append((
            ip, offset, actual,
            prediction.address if prediction.made else None,
            prediction.speculative, prediction.source,
        ))

    run_on_stream(
        predictor, events, metrics,
        warmup_loads=warmup, observer=_capture,
    )
    return captured, metrics


def _metric_tuple(m):
    return (m.loads, m.predictions, m.speculative,
            m.correct_speculative, m.correct_predictions)


class TestParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("factory", ["stride", "cap", "hybrid"])
    def test_single_feed_matches_offline(
        self, monkeypatch, backend, factory
    ):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        events = _events(seed=3)
        session = PredictorSession(SessionConfig(factory=factory))
        served = session.feed(events)
        expected, metrics = offline_records(factory, events)
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)

    @pytest.mark.parametrize("backend, form, cuts", CHUNKED_CASES)
    def test_chunked_feeds_match_offline(
        self, monkeypatch, backend, form, cuts
    ):
        # Chunking and feed form must be invisible: first feed may take
        # the kernel path, later feeds continue scalar on the trained
        # predictor.
        monkeypatch.setenv("REPRO_BACKEND", backend)
        events = _events("rds_walk", seed=7)
        session = PredictorSession(SessionConfig(factory="hybrid"))
        served = []
        for chunk in _feeds(events, form, cuts):
            served.extend(session.feed(chunk))
        expected, metrics = offline_records("hybrid", events)
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)

    def test_kernel_path_actually_ran(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        session = PredictorSession(SessionConfig(factory="hybrid"))
        session.feed(_events(seed=1))
        assert session.kernel_feeds == 1
        assert session.backend == "numpy"
        assert session.metrics.backend == "numpy"

    def test_scalar_backend_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        session = PredictorSession(SessionConfig(factory="hybrid"))
        session.feed(_events(seed=1))
        assert session.kernel_feeds == 0
        assert session.backend == "python"

    def test_warmup_spanning_feed_boundary(self, monkeypatch):
        # Warm-up is global across feeds: 100 loads of warm-up split
        # over two feeds must account exactly like one offline run.
        monkeypatch.setenv("REPRO_BACKEND", "python")
        events = _events("aliasing", seed=5)
        session = PredictorSession(
            SessionConfig(factory="cap", warmup_loads=100)
        )
        served = []
        served.extend(session.feed(events[:200]))
        served.extend(session.feed(events[200:]))
        expected, metrics = offline_records("cap", events, warmup=100)
        # Records cover *every* load (a served client always gets its
        # prediction); only the metrics respect warm-up.
        assert served == expected
        assert _metric_tuple(session.finish()) == _metric_tuple(metrics)
        assert len(served) > session.metrics.loads


class TestIsolation:
    def test_interleaved_sessions_do_not_share_state(self, monkeypatch):
        # Feeding two sessions alternately must equal running each
        # alone — LB/LT/GHR state is per-session, not per-process.
        monkeypatch.setenv("REPRO_BACKEND", "python")
        events_a = _events("rds_walk", seed=11)
        events_b = _events("branch_churn", seed=22)
        a = PredictorSession(SessionConfig(factory="hybrid"), "a")
        b = PredictorSession(SessionConfig(factory="hybrid"), "b")
        got_a, got_b = [], []
        span = max(len(events_a), len(events_b))
        for start in range(0, span, 100):
            got_a.extend(a.feed(events_a[start : start + 100]))
            got_b.extend(b.feed(events_b[start : start + 100]))
        solo_a, _ = offline_records("hybrid", events_a)
        solo_b, _ = offline_records("hybrid", events_b)
        assert got_a == solo_a
        assert got_b == solo_b


class TestLifecycle:
    def test_feed_after_finish_raises(self):
        session = PredictorSession(SessionConfig(factory="stride"), "s1")
        session.feed(_events(n=50))
        session.finish()
        with pytest.raises(RuntimeError, match="s1 is finished"):
            session.feed(_events(n=10))

    def test_finish_is_idempotent(self):
        session = PredictorSession(SessionConfig(factory="stride"))
        session.feed(_events(n=50))
        assert session.finish() is session.finish()

    def test_empty_feed(self):
        session = PredictorSession(SessionConfig(factory="stride"))
        assert session.feed([]) == []
        assert session.seen_events == 0

    def test_instrumented_session_attribution(self, monkeypatch, tmp_path):
        """A served session fed in chunks counts the same attribution and
        metrics as one offline instrumented run over the same stream (on
        numpy the first feed runs the kernels, the rest the scalar
        loop)."""
        from repro.workloads import suites

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        stream = suites.get_predictor_stream("INT_xli", 20000)
        events = list(stream.tuples())
        configs = [
            SessionConfig(factory=factory, instrument=True)
            for factory in ("stride", "cap", "hybrid")
        ] + [SessionConfig(factory="hybrid", gap=8, instrument=True)]
        for backend in ("python", "numpy"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            for config in configs:
                session = PredictorSession(config)
                start = 0
                for size in itertools.cycle((2000, 777)):
                    if start >= len(events):
                        break
                    session.feed(events[start:start + size])
                    start += size
                served = session.finish()
                offline = run_predictor(
                    build_predictor(config.to_job()), stream,
                    instrument=True,
                )
                cell = (backend, config.factory, config.gap)
                assert any(served.attribution().values()), cell
                assert served.attribution() == offline.attribution(), cell
                assert _metric_tuple(served) == _metric_tuple(offline), cell


class TestSessionConfig:
    def test_from_dict_picks_known_fields(self):
        config = SessionConfig.from_dict({
            "type": "open", "factory": "cap", "warmup_loads": 10,
            "overrides": {"history_length": 2}, "variant": "v",
        })
        assert config.factory == "cap"
        assert config.warmup_loads == 10
        assert config.overrides == {"history_length": 2}
        assert config.variant == "v"

    def test_from_dict_rejects_non_dict_overrides(self):
        with pytest.raises(ValueError, match="overrides"):
            SessionConfig.from_dict({"factory": "cap", "overrides": [1]})

    def test_unknown_factory_fails_at_build(self):
        with pytest.raises(KeyError, match="unknown predictor factory"):
            PredictorSession(SessionConfig(factory="bogus"))
