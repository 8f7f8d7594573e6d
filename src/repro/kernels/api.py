"""Batch kernel API: results, fallback signalling, backend selection.

A *batch kernel* evaluates a predictor over a whole columnar event stream
in two phases mirroring the scalar ``predict``/``update`` contract:

* ``predict_batch(batch)`` — a pure solver.  Reads the predictor's
  configuration (never its mutable state: kernels only run on untrained
  predictors driven from the start of a stream) and returns a
  :class:`BatchResult` holding the per-load outcome arrays plus whatever
  intermediate state the commit phase needs.  Must not mutate anything;
  raises :class:`BatchFallback` for configurations it cannot vectorise.
* ``update_batch(batch, result)`` — commits the end-of-stream
  architectural state, leaving the predictor indistinguishable from one
  trained by the scalar path.  Statistics, clocks, the GHR and call
  path, probe counts and selector statistics are written at once; the
  table entries are left as per-generation columns in a pending fill,
  which a table applies when its storage is first built
  (:meth:`repro.common.tables.LazySets.fill_later`), so a
  predictor whose tables nobody reads never builds them.

Backends: ``python`` is the always-available scalar reference (the kernel
layer simply declines to run); ``numpy`` is the vectorised path.  The
default is feature-detected and can be forced with ``REPRO_BACKEND`` (the
CLI's ``--backend`` flag sets the same variable).
"""

from __future__ import annotations

import importlib.util
from typing import Optional, Tuple

__all__ = [
    "BACKEND_ENV",
    "BACKEND_PYTHON",
    "BACKEND_NUMPY",
    "BatchFallback",
    "BatchResult",
    "available_backends",
    "record_dispatch",
    "resolve_backend",
]

BACKEND_ENV = "REPRO_BACKEND"
BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"


class BatchFallback(Exception):
    """Raised by a kernel that cannot vectorise this configuration.

    The dispatcher catches it and runs the scalar reference path instead;
    the exception carries a short reason for diagnostics.
    """


class BatchResult:
    """Per-load outcome arrays plus the kernel's commit payload.

    ``address`` is only meaningful where ``made`` is set; ``correct``
    is ``made & (address == actual)`` (exactly the scalar runner's
    ``prediction.address == a`` — a no-prediction never compares equal).
    ``source_code`` indexes ``source_names`` per load, reproducing each
    scalar ``Prediction.source`` string for the differential harness.
    ``state`` is an opaque payload handed to the kernel's commit phase.
    """

    __slots__ = (
        "address", "made", "speculative", "correct",
        "source_code", "source_names", "state",
    )

    def __init__(
        self,
        address,
        made,
        speculative,
        correct,
        source_code,
        source_names: Tuple[str, ...],
        state=None,
    ) -> None:
        self.address = address
        self.made = made
        self.speculative = speculative
        self.correct = correct
        self.source_code = source_code
        self.source_names = source_names
        self.state = state


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this environment (``python`` always is)."""
    if importlib.util.find_spec("numpy") is not None:
        return (BACKEND_PYTHON, BACKEND_NUMPY)
    return (BACKEND_PYTHON,)


def record_dispatch(predictor, outcome: str) -> None:
    """Tally one dispatch decision for a predictor's kernel.

    ``outcome`` is ``dispatched`` (the batch kernel ran), ``fallback``
    (the kernel raised :class:`BatchFallback` and the scalar reference
    ran) or ``declined`` (the dispatcher never tried: wrong backend, no
    batch support, or a per-access observer attached).  One counter
    increment per *run* — far off the per-event hot path — recorded in
    the process-wide :func:`repro.obs.metrics.global_registry`, so the
    serving admin endpoint and run manifests can report which kernels
    actually carried the load.
    """
    from ..obs.metrics import global_registry

    global_registry().counter(
        f"kernels.{type(predictor).__name__}.{outcome}"
    ).inc()


def resolve_backend(override: Optional[str] = None) -> str:
    """Effective backend name.

    Precedence: explicit ``override`` argument, then the ``REPRO_BACKEND``
    environment variable, then feature detection (numpy when importable).
    The resolution itself lives in :mod:`repro.eval.config` — the single
    sanctioned environment-reading module — and is imported lazily here so
    the kernel layer stays importable on its own.
    """
    from ..eval.config import resolve_backend as _resolve

    return _resolve(override)
