"""Guard: disabled instrumentation must not slow the columnar loop.

The attribution probes are wired as ``if self.probe is not None:`` checks on
the predictor hot paths.  This benchmark freezes a copy of the stride
predictor exactly as it was *before* those checks existed (``_Seed*``
classes below) and times both against :func:`run_on_columns`, asserting the
probe-check overhead of the disabled path stays under 2%.

A drift guard runs first: the seed copy and the live predictor must produce
identical metrics on the same stream.  If a behavioural change to the
stride predictor lands, that assertion fails loudly — refresh the frozen
copy to match before trusting the timing comparison again.

The observability plane (``repro.obs``) gets the same treatment: its
hooks sit at per-chunk/per-feed granularity (never per event), and a
disabled registry/tracer hands out shared null instruments.  The second
benchmark drives a chunked evaluation loop with the exact hook set the
serving batch worker uses per feed and holds it to the same <2% budget.
"""

import time
from typing import Optional

from repro.common.bitops import mask
from repro.common.tables import SetAssociativeTable
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_on_columns
from repro.predictors.base import AddressPredictor, Prediction, lb_key
from repro.predictors.stride import StrideConfig, StridePredictor, StrideState
from repro.workloads import LinkedListWorkload, trace_workload

_MASK32 = mask(32)

ROUNDS = 7
MAX_OVERHEAD = 0.02


class _SeedStrideLogic:
    """``StrideLogic`` as of the pre-instrumentation seed (no probe)."""

    def __init__(self, config: StrideConfig) -> None:
        self.config = config

    def predict(
        self,
        state: StrideState,
        ghr: int,
        speculative_mode: bool = False,
    ) -> Prediction:
        base = state.spec_last_addr if speculative_mode else state.last_addr
        if speculative_mode:
            state.pending += 1
        if base is None:
            return Prediction(source="stride")
        address = (base + state.stride) & _MASK32
        speculative = state.confidence.confident and state.cfi.allows(ghr)
        if speculative_mode and state.suppress > 0:
            speculative = False
        if (
            speculative
            and self.config.use_interval
            and state.interval
            and state.run_length >= state.interval
        ):
            speculative = False
        if speculative_mode:
            state.spec_last_addr = address
        return Prediction(
            address=address, speculative=speculative, source="stride"
        )

    def train(
        self,
        state: StrideState,
        actual: int,
        ghr_at_predict: int,
        speculated: bool,
        predicted_addr: Optional[int] = None,
        had_prediction: bool = False,
        speculative_mode: bool = False,
    ) -> None:
        if not had_prediction and predicted_addr is None:
            if state.last_addr is not None:
                predicted_addr = (state.last_addr + state.stride) & _MASK32
        correct = (
            predicted_addr == actual if predicted_addr is not None else None
        )
        if correct is not None:
            state.confidence.update(correct)
            state.cfi.record(ghr_at_predict, correct, speculated)
            if self.config.use_interval:
                if correct:
                    state.run_length += 1
                else:
                    if state.run_length:
                        state.interval = state.run_length
                    state.run_length = 0
        if state.last_addr is not None:
            delta = (actual - state.last_addr) & _MASK32
            if self.config.two_delta:
                if state.last_delta is not None and delta == state.last_delta:
                    state.stride = delta
                state.last_delta = delta
            else:
                state.stride = delta
        state.last_addr = actual

        if speculative_mode:
            state.pending = max(0, state.pending - 1)
            if state.suppress > 0:
                state.suppress -= 1
            if not correct:
                state.spec_last_addr = (
                    actual + state.stride * state.pending
                ) & _MASK32
                state.suppress = state.pending
        else:
            state.spec_last_addr = actual
            state.pending = 0
            state.suppress = 0


class _SeedStridePredictor(AddressPredictor):
    """``StridePredictor`` as of the pre-instrumentation seed."""

    def __init__(self, config: Optional[StrideConfig] = None) -> None:
        super().__init__()
        self.config = config or StrideConfig()
        self.logic = _SeedStrideLogic(self.config)
        self.table: SetAssociativeTable[StrideState] = SetAssociativeTable(
            self.config.entries, self.config.ways
        )
        self.speculative_mode = False

    def predict(self, ip: int, offset: int) -> Prediction:
        state = self.table.lookup(lb_key(ip))
        if state is None:
            state = StrideState(self.config)
            if self.speculative_mode:
                state.pending = 1
            self.table.insert(lb_key(ip), state)
            return Prediction(source="stride")
        prediction = self.logic.predict(
            state, self.ghr, speculative_mode=self.speculative_mode
        )
        prediction.ghr = self.ghr
        return prediction

    def update(
        self, ip: int, offset: int, actual: int, prediction: Prediction
    ) -> None:
        state = self.table.lookup(lb_key(ip))
        if state is None:
            state = StrideState(self.config)
            self.table.insert(lb_key(ip), state)
        self.logic.train(
            state,
            actual,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative,
            predicted_addr=prediction.address,
            had_prediction=True,
            speculative_mode=self.speculative_mode,
        )

    def reset(self) -> None:
        super().reset()
        self.table.clear()


def _stream():
    trace = trace_workload(
        LinkedListWorkload(seed=9), max_instructions=120_000
    )
    return trace.predictor_columns()


def _metric_tuple(m):
    return (m.loads, m.predictions, m.speculative, m.correct_speculative,
            m.correct_predictions)


def _time_run(factory, stream) -> float:
    predictor = factory()
    started = time.perf_counter()
    run_on_columns(predictor, stream, PredictorMetrics())
    return time.perf_counter() - started


def test_seed_copy_has_not_drifted():
    """Behavioural lockstep between the frozen copy and the live code."""
    stream = _stream()
    live = run_on_columns(StridePredictor(), stream, PredictorMetrics())
    seed = run_on_columns(_SeedStridePredictor(), stream, PredictorMetrics())
    assert _metric_tuple(live) == _metric_tuple(seed), (
        "live stride predictor diverged from the frozen seed copy —"
        " update _SeedStrideLogic/_SeedStridePredictor to match before"
        " trusting the overhead numbers"
    )


def test_disabled_instrumentation_overhead(record_property):
    """Probe ``is not None`` checks must cost <2% with no probe attached."""
    stream = _stream()
    # Warm both paths (bytecode caches, branch history, allocator).
    _time_run(StridePredictor, stream)
    _time_run(_SeedStridePredictor, stream)
    live_times = []
    seed_times = []
    for _ in range(ROUNDS):  # interleaved so drift hits both equally
        live_times.append(_time_run(StridePredictor, stream))
        seed_times.append(_time_run(_SeedStridePredictor, stream))
    live, seed = min(live_times), min(seed_times)
    overhead = live / seed - 1.0
    record_property("disabled_overhead", f"{overhead:+.3%}")
    print(f"\ndisabled-instrumentation overhead: {overhead:+.2%}"
          f" (live {live * 1000:.1f}ms vs seed {seed * 1000:.1f}ms,"
          f" best of {ROUNDS})")
    assert overhead < MAX_OVERHEAD, (
        f"disabled instrumentation costs {overhead:.2%} on the columnar"
        f" loop (budget {MAX_OVERHEAD:.0%})"
    )


# ---------------------------------------------------------------------------
# Observability plane: disabled metrics/tracing hooks on the feed path
# ---------------------------------------------------------------------------

CHUNK_EVENTS = 2048


def _chunks(stream):
    """The stream's event tuples in serving-sized feed chunks."""
    tuples = stream.tuples()
    return [
        tuples[i : i + CHUNK_EVENTS]
        for i in range(0, len(tuples), CHUNK_EVENTS)
    ]


def _time_chunked_run(chunks, hooks=None) -> float:
    """One session-style run: a fresh predictor fed chunk by chunk.

    ``hooks`` mirrors the serving batch worker's per-feed hook set:
    queue-depth gauge, occupancy histogram, wait histogram, one span.
    """
    from repro.serve.session import PredictorSession, SessionConfig

    session = PredictorSession(SessionConfig(factory="stride"))
    started = time.perf_counter()
    if hooks is None:
        for chunk in chunks:
            session.feed(chunk)
    else:
        depth, occupancy, wait, counter, tracer = hooks
        for chunk in chunks:
            depth.set(1.0)
            occupancy.observe(1.0)
            wait.observe(0.0)
            counter.inc()
            with tracer.span("serve.batch.exec", batch=1):
                session.feed(chunk)
    return time.perf_counter() - started


def test_disabled_obs_hooks_overhead(record_property):
    """The serving feed path's obs hooks must cost <2% when disabled.

    The hook set costs microseconds per feed while a feed itself takes
    milliseconds, so a paired end-to-end comparison buries the signal
    under run-to-run noise many times its size.  Instead: time the bare
    chunked run for the denominator, then time the disabled hook set
    itself in a tight loop and bound its per-feed cost's share of the
    bare feed time.  That measures exactly the ops the hooked path adds,
    with no noise floor to flake on.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    registry = MetricsRegistry(enabled=False)
    tracer = Tracer(enabled=False)
    depth = registry.gauge("serve.queue.depth")
    occupancy = registry.histogram("serve.batch.occupancy")
    wait = registry.histogram("serve.queue.wait_s")
    counter = registry.counter("serve.feeds")
    hooks = (depth, occupancy, wait, counter, tracer)

    chunks = _chunks(_stream())
    # One hooked run end to end: the wiring executes, and the disabled
    # instruments must leave both stores untouched afterwards.
    _time_chunked_run(chunks, hooks)
    _time_chunked_run(chunks)  # warm the bare path
    bare = min(_time_chunked_run(chunks) for _ in range(3))

    iterations = 20_000
    for _ in range(iterations):  # warm the hook loop
        depth.set(1.0)
    started = time.perf_counter()
    for _ in range(iterations):
        depth.set(1.0)
        occupancy.observe(1.0)
        wait.observe(0.0)
        counter.inc()
        with tracer.span("serve.batch.exec", batch=1):
            pass
    per_feed = (time.perf_counter() - started) / iterations
    overhead = per_feed * len(chunks) / bare
    record_property("disabled_obs_overhead", f"{overhead:+.3%}")
    print(f"\ndisabled-obs-hook overhead: {overhead:+.2%}"
          f" ({per_feed * 1e6:.1f}us/feed x {len(chunks)} chunks vs"
          f" bare {bare * 1000:.1f}ms)")
    # Nothing registered, nothing buffered: truly inert when disabled.
    assert len(registry) == 0
    assert len(tracer) == 0
    assert overhead < MAX_OVERHEAD, (
        f"disabled obs hooks cost {overhead:.2%} on the chunked feed"
        f" path (budget {MAX_OVERHEAD:.0%})"
    )
