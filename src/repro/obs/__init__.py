"""Observability: metrics, tracing, flight recording, run manifests.

Everything in this package *observes* the simulator, the engine and the
serving stack and never feeds back into simulated state — which is why
the R002 determinism rule allowlists ``obs/`` for wall-clock reads, and
why nothing here is imported by a predictor or evaluation loop (only by
the layers around them: the engine, the server, the shard manager, the
kernel dispatcher).  Attribution (why loads mispredicted) is not counted
here: it lives in the per-job metrics object itself,
:class:`repro.eval.metrics.AttributionCounters`, which instrumented runs
attach to the predictor tree as its probe.

* :mod:`repro.obs.metrics` — a process-mergeable registry of counters,
  gauges and fixed-bucket latency histograms.  Snapshots are plain JSON
  dicts; shard workers ship theirs over the pipe and the manager merges.
* :mod:`repro.obs.tracing` — trace/span IDs minted at the wire protocol
  and propagated through frames, the micro-batching executor, the shard
  hop and engine job specs; exported as Chrome trace-event JSON
  (Perfetto-loadable), validated against a checked-in schema.
* :mod:`repro.obs.flight` — a bounded per-session ring buffer of recent
  events, dumped to a postmortem manifest when a session dies badly.
* :mod:`repro.obs.manifest` — the JSON run manifest every engine job and
  served session writes under ``REPRO_TELEMETRY=1``, heartbeat lines,
  and the clocks the rest of the tree measures with;
  :mod:`repro.obs.schema` validates manifests, SLO reports, postmortems
  and trace exports against their checked-in schemas.
* :mod:`repro.obs.admin` — the server's admin endpoint (separate port,
  same length-prefixed protocol) serving ``metrics``/``health``/``spans``.
* :mod:`repro.obs.report` — the ``repro stats tail`` / ``repro stats
  spans`` backends.
* :mod:`repro.obs.stats` — the ``repro stats`` reporting backend
  (misprediction-cause breakdowns, manifest summaries and diffs).  It
  imports the experiment engine, so it is imported lazily by the CLI and
  not re-exported here.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    histogram_percentile,
)
from .tracing import (
    TRACE_EVENT_SCHEMA_PATH,
    Tracer,
    mint_trace_id,
    validate_trace_export,
)
from .flight import FlightRecorder, POSTMORTEM_SCHEMA_ID
from .manifest import MANIFEST_SCHEMA_ID

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA_ID",
    "MetricsRegistry",
    "POSTMORTEM_SCHEMA_ID",
    "TRACE_EVENT_SCHEMA_PATH",
    "Tracer",
    "global_registry",
    "histogram_percentile",
    "mint_trace_id",
    "validate_trace_export",
]
