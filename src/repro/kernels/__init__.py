"""Batch kernel layer: vectorised predictor evaluation over columnar events.

The scalar evaluation loop (:func:`repro.eval.runner.run_scalar`)
interprets one event at a time; for table-indexed predictors the same
computation factors into grouped array passes — the kernels here evaluate
a whole :class:`~repro.trace.trace.PredictorStream` per predictor in a
handful of numpy operations plus short Python loops over rare sequential
stretches (CFI dirty periods, per-key state commits).

Entry point: :func:`try_run_batch`, called by
:func:`repro.eval.runner.run_on_columns` and by a served session's first
feed.  It dispatches to a predictor's ``predict_batch``/``update_batch``
kernel when

* the resolved backend is ``numpy`` (``REPRO_BACKEND`` / ``--backend``),
* the predictor advertises ``supports_batch`` and is not in the pipelined
  ``speculative_mode``, and
* no per-access observer is attached (callers that need per-access
  records rebuild them from the result with :func:`batch_records`),

and falls back to the scalar reference when the kernel raises
:class:`BatchFallback` (configurations with genuinely sequential table
dynamics, e.g. an overflowing load-buffer set or a set-associative LT).
Either way the metrics record which backend actually ran.
"""

from __future__ import annotations

from typing import Callable, Optional

from .api import (
    BACKEND_ENV,
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    BatchFallback,
    BatchResult,
    available_backends,
    record_dispatch,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NUMPY",
    "BACKEND_PYTHON",
    "BatchFallback",
    "BatchResult",
    "available_backends",
    "record_dispatch",
    "resolve_backend",
    "supports_batch",
    "try_run_batch",
    "run_batch",
    "batch_records",
]


def supports_batch(predictor) -> bool:
    """Whether ``predictor`` can be evaluated by a batch kernel at all."""
    return bool(getattr(type(predictor), "supports_batch", False)) and not getattr(
        predictor, "speculative_mode", False
    )


def run_batch(predictor, stream) -> Optional[BatchResult]:
    """Run the kernel path unconditionally; ``None`` on :class:`BatchFallback`.

    The kernels evaluate every load; warm-up only changes which loads
    :func:`fold_metrics` counts.  The predictor must pass
    :func:`supports_batch`.  On success the
    predictor holds the same end-of-stream state the scalar path would
    have produced: its statistics at once, its table entries as pending
    fills that each table applies on first read.
    """
    from .batch import EventBatch

    batch = EventBatch.from_stream(stream)
    try:
        result = predictor.predict_batch(batch)
    except BatchFallback:
        return None
    predictor.update_batch(batch, result)
    return result


def try_run_batch(
    predictor,
    stream,
    metrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> Optional[BatchResult]:
    """Kernel dispatch, tallying exactly one outcome per call.

    Returns the :class:`BatchResult` when the batch path ran (metrics
    fully folded); ``None`` when the caller must run the scalar loop.
    """
    if (
        observer is not None
        or not supports_batch(predictor)
        or resolve_backend() != BACKEND_NUMPY
    ):
        record_dispatch(predictor, "declined")
        return None
    result = run_batch(predictor, stream)
    if result is None:
        record_dispatch(predictor, "fallback")
        return None
    record_dispatch(predictor, "dispatched")
    fold_metrics(result, metrics, warmup_loads)
    metrics.backend = BACKEND_NUMPY
    return result


def fold_metrics(result: BatchResult, metrics, warmup_loads: int) -> None:
    """Accumulate a batch result into a PredictorMetrics, skipping warm-up."""
    n = len(result.made)
    w = min(max(warmup_loads, 0), n)
    made = result.made[w:]
    spec = result.speculative[w:]
    corr = result.correct[w:]
    metrics.loads += n - w
    metrics.predictions += int(made.sum())
    metrics.correct_predictions += int(corr.sum())
    metrics.speculative += int(spec.sum())
    metrics.correct_speculative += int((spec & corr).sum())


def batch_records(result: BatchResult, stream) -> list:
    """Reconstruct per-access ``(ip, offset, actual, prediction)`` views.

    Returns one ``(ip, offset, actual, address, speculative, source)``
    tuple per dynamic load — the exact fields the differential harness's
    observer captures from the scalar paths.
    """
    import numpy as np

    tag, ip, a, b = stream.arrays()
    idx = np.flatnonzero(tag == 1)
    ips = ip[idx].tolist()
    actual = a[idx].tolist()
    offsets = b[idx].tolist()
    addresses = result.address.tolist()
    made = result.made.tolist()
    spec = result.speculative.tolist()
    names = result.source_names
    codes = result.source_code.tolist()
    return [
        (
            ips[i],
            offsets[i],
            actual[i],
            addresses[i] if made[i] else None,
            spec[i],
            names[codes[i]],
        )
        for i in range(len(ips))
    ]
