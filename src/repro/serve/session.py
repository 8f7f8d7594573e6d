"""Sessionized predictor evaluation: the facade the serving layer drives.

A :class:`PredictorSession` owns one predictor plus everything the
offline runner used to scatter across call sites: the LB/LT tables live
in the predictor, the correctness counters in a
:class:`~repro.eval.metrics.PredictorMetrics` (or
:class:`~repro.eval.metrics.AttributionCounters`, which is also the
predictor's probe, when instrumented), and cross-feed warm-up accounting
in the session itself.  ``feed(events)`` returns one prediction record
per dynamic load; ``finish()`` seals the session and returns the
metrics.  :func:`finish_session` is what the server and its shard
workers call: it seals the session, writes its run manifest when
telemetry is on, and returns the ``finish`` response body.

A feed runs the offline evaluation path of :mod:`repro.eval.runner`:
the kernel dispatch (:func:`repro.kernels.try_run_batch`), else the
scalar loop (:func:`repro.eval.runner.run_scalar`) with an observer that
captures the records.  The session adds one rule of its own:

* The numpy kernels evaluate a whole stream against an **untrained**
  predictor, so the kernel path is only valid on the *first* feed of a
  fresh session.  Later feeds run the scalar loop against the
  already-trained tables.
* ``metrics.backend`` records the backend that *actually ran*: ``numpy``
  iff at least one kernel dispatch succeeded, else ``python`` — a
  session whose every dispatch fell back reports ``python``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..eval.engine import Job, build_predictor
from ..eval.metrics import PredictorMetrics
from ..eval.runner import _columns_of, new_metrics, run_scalar
# Re-exported: the benchmark's served-vs-offline check and ledger bind these.
from ..eval.runner import run_on_columns, run_on_stream
from ..kernels import (
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    batch_records,
    record_dispatch,
    try_run_batch,
)
from ..obs import manifest as run_manifest
from ..predictors.base import AddressPredictor
from ..trace.trace import PredictorStream

__all__ = [
    "PredictionRecord",
    "PredictorSession",
    "SessionConfig",
    "finish_session",
    "run_on_columns",
    "run_on_stream",
]

#: One served prediction: ``(ip, offset, actual, address, speculative,
#: source)`` with ``address is None`` when the predictor had nothing to
#: offer — the exact tuple shape :func:`repro.kernels.batch_records`
#: reconstructs from a kernel run, so served output is byte-identical
#: whichever path evaluated the load.
PredictionRecord = Tuple[int, int, int, Optional[int], bool, str]


# ---------------------------------------------------------------------------
# Session configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionConfig:
    """Picklable spec of one predictor session.

    The same factory/overrides/gap vocabulary as
    :class:`repro.eval.engine.Job` — :meth:`to_job` maps a config onto a
    (trace-less) job so session workers reuse
    :func:`repro.eval.engine.build_predictor` verbatim, the serving
    analogue of jobs crossing the engine's process boundary as specs.
    """

    factory: str = "hybrid"
    overrides: Dict[str, Any] = field(default_factory=dict)
    warmup_loads: int = 0
    gap: Optional[int] = None
    instrument: bool = False
    variant: str = ""
    trace: str = ""

    def to_job(self) -> Job:
        """The engine job this session spec corresponds to."""
        return Job(
            trace=self.trace,
            factory=self.factory,
            overrides=dict(self.overrides),
            gap=self.gap,
            variant=self.variant,
            instrument=self.instrument,
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SessionConfig":
        """Build a config from a wire-protocol ``open`` payload."""
        known = {f: payload[f] for f in (
            "factory", "warmup_loads", "gap", "instrument", "variant",
            "trace",
        ) if f in payload}
        overrides = payload.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ValueError("overrides must be an object")
        return cls(overrides=dict(overrides), **known)


# ---------------------------------------------------------------------------
# The session facade
# ---------------------------------------------------------------------------

class PredictorSession:
    """One stateful prediction session: predictor + metrics + warm-up.

    ``feed(events)`` evaluates a chunk of the stream and returns one
    :data:`PredictionRecord` per dynamic load in it; ``finish()`` seals
    the session and returns the accumulated metrics.  Sessions are
    single-owner objects (one per connection in the serving layer) and
    are not thread-safe.
    """

    def __init__(
        self, config: SessionConfig, session_id: str = ""
    ) -> None:
        self.config = config
        self.session_id = session_id
        self.predictor: AddressPredictor = build_predictor(config.to_job())
        self.metrics: PredictorMetrics = new_metrics(
            self.predictor, config.variant, config.trace, "serve",
            config.instrument,
        )
        self.seen_loads = 0
        self.seen_events = 0
        self.feeds = 0
        self.kernel_feeds = 0
        self.finished = False
        #: (wall, perf, CPU) clocks at open, for the session's manifest.
        self.started = (
            run_manifest.wall_clock(),
            run_manifest.perf_clock(),
            run_manifest.cpu_clock(),
        )

    # -- introspection -------------------------------------------------------

    @property
    def backend(self) -> str:
        """Backend that actually ran: ``numpy`` iff a kernel dispatch did."""
        return BACKEND_NUMPY if self.kernel_feeds else BACKEND_PYTHON

    # -- the facade ----------------------------------------------------------

    def feed(
        self,
        events: Union[PredictorStream, Iterable[tuple]],
        observer: Optional[Callable] = None,
    ) -> List[PredictionRecord]:
        """Evaluate one chunk of the stream; one record per dynamic load.

        Records cover *every* load in the chunk — warm-up only suppresses
        metric accounting, a served client still gets its prediction.
        Raises :class:`RuntimeError` on a finished session.
        """
        if self.finished:
            raise RuntimeError(
                f"session {self.session_id or '<anonymous>'} is finished"
            )
        stream = (
            events if isinstance(events, PredictorStream)
            else _columns_of(events)
        )
        result = None
        if self.feeds == 0:
            result = try_run_batch(
                self.predictor, stream, self.metrics,
                self.config.warmup_loads, observer,
            )
        else:
            # Kernels replay a stream against an untrained predictor.
            record_dispatch(self.predictor, "declined")
        if result is not None:
            records = batch_records(result, stream)
            self.kernel_feeds += 1
        else:
            records = []

            def _capture(
                ip: int, offset: int, actual: int, prediction: Any
            ) -> None:
                records.append((
                    ip, offset, actual,
                    prediction.address if prediction.made else None,
                    prediction.speculative, prediction.source,
                ))
                if observer is not None:
                    observer(ip, offset, actual, prediction)

            run_scalar(
                self.predictor, stream, self.metrics,
                max(0, self.config.warmup_loads - self.seen_loads), _capture,
            )
        self.seen_loads += len(records)
        self.seen_events += len(stream)
        self.feeds += 1
        self.metrics.backend = self.backend
        return records

    def finish(self) -> PredictorMetrics:
        """Seal the session and return its metrics (idempotent)."""
        self.finished = True
        return self.metrics


def finish_session(
    session: PredictorSession,
    trace_id: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Seal ``session`` and return the body of its ``finish`` response.

    Under ``REPRO_TELEMETRY=1`` this also writes the session's
    ``kind="serve"`` run manifest, built by the same
    :func:`repro.obs.manifest.build_manifest` as an engine job's.
    """
    metrics = session.finish()
    attribution = run_manifest.attribution_record(metrics)
    if run_manifest.enabled():
        config = session.config
        started_wall, started_perf, started_cpu = session.started
        manifest = run_manifest.build_manifest(
            config,
            replace(
                config.to_job(), kind="serve",
                variant=config.variant or config.factory,
            ),
            {
                "name": config.trace or "served-stream",
                "suite": "serve",
                "events": session.seen_events,
                "loads": metrics.loads,
            },
            started_wall=started_wall,
            wall_s=run_manifest.perf_clock() - started_perf,
            cpu_s=run_manifest.cpu_clock() - started_cpu,
            backend=session.backend,
            metrics=metrics,
            attribution=attribution,
            trace_id=trace_id,
            flight_recorder=flight_dir,
        )
        run_manifest.write_manifest(manifest)
    return {
        "backend": session.backend,
        "loads": session.seen_loads,
        "events": session.seen_events,
        "feeds": session.feeds,
        "kernel_feeds": session.kernel_feeds,
        "metrics": run_manifest.metrics_record(metrics),
        "attribution": attribution,
    }
