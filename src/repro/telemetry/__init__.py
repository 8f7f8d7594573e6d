"""Observability layer: attribution probes, run manifests, stats.

Three pieces, all disabled by default and zero-cost when off:

* :mod:`repro.telemetry.instrumentation` — the :class:`Instrumentation`
  protocol simulator components emit typed attribution events into
  (LB miss, LT tag mismatch, PF rejection, confidence/CFI veto, selector
  choice, catch-up, speculative-history rollback, ...), the counting
  :class:`AttributionProbe`, and :func:`instrument_predictor` to wire a
  probe through a predictor tree from the outside.
* :mod:`repro.telemetry.manifest` — JSON run manifests + heartbeat lines
  every engine job records under ``REPRO_TELEMETRY=1``.
* :mod:`repro.telemetry.stats` — the ``python -m repro stats`` reporting
  backend: misprediction-cause breakdowns and manifest-set diffs
  (imported lazily by the CLI; not re-exported here to keep this package
  importable from the timing/eval layers without dragging them back in).

See ``docs/observability.md`` for the counter taxonomy, the manifest
schema, and worked examples.
"""

from .instrumentation import (
    ATTRIBUTION_FIELDS,
    AttributionProbe,
    Instrumentation,
    instrument_predictor,
)
from .manifest import MANIFEST_SCHEMA_ID

__all__ = [
    "ATTRIBUTION_FIELDS",
    "AttributionProbe",
    "Instrumentation",
    "MANIFEST_SCHEMA_ID",
    "instrument_predictor",
]
