"""Drive a predictor over a trace and collect metrics.

The runner walks the trace's predictor stream (loads, branches, calls,
returns in program order), calls ``predict``/``update`` for every dynamic
load and maintains the correctness bookkeeping.  With the default
immediate-update predictors this reproduces the Section 4 machine model;
wrapping the predictor in :class:`repro.pipeline.PipelinedPredictor` gives
the Section 5 model without changing the loop.

There is one evaluation path, for every table.  :func:`run_on_columns`
tries the batch kernels (:func:`repro.kernels.try_run_batch`) and
otherwise runs :func:`run_scalar`, the only per-event loop.
:func:`load_outcomes` runs the same two halves and also returns each
load's outcome, the column the timing model
(:func:`repro.timing.ooo.simulate`) schedules.  :func:`run_on_stream`
packs a tuple list into columns and calls :func:`run_on_columns`;
:func:`run_predictor` is the one-shot convenience over both.  The served
:class:`~repro.serve.session.PredictorSession` calls the same two pieces.

Every caller starts its counters with :func:`new_metrics`, which for an
instrumented run also wires the counters through the predictor tree as
its attribution probe (:func:`instrument_predictor`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..kernels import try_run_batch
from ..pipeline.delayed import PipelinedPredictor
from ..predictors.base import AddressPredictor, Prediction
from ..predictors.cap import CAPComponent, CAPPredictor
from ..predictors.hybrid import HybridPredictor
from ..predictors.stride import StridePredictor
from ..trace.trace import PredictorStream, Trace
from .metrics import AttributionCounters, PredictorMetrics

__all__ = [
    "instrument_predictor",
    "load_outcomes",
    "new_metrics",
    "run_on_columns",
    "run_on_stream",
    "run_predictor",
    "run_scalar",
]


def instrument_predictor(predictor: Any, probe: AttributionCounters) -> None:
    """Attach ``probe`` to every instrumented component of ``predictor``.

    Attachment happens from the outside — predictors only carry a
    ``probe`` attribute initialised to ``None`` — so the simulator layer
    never imports this module, and a probe is never part of a predictor's
    learned state (``reset()`` forgets tables, not wiring).

    Handles the stand-alone CAP/stride predictors, the shared-LB hybrid
    (both embedded components plus its Link Table), and a
    :class:`~repro.pipeline.delayed.PipelinedPredictor` wrapper (the probe
    reaches both the wrapper, for flush events, and the wrapped core).
    Other predictor types get the top-level attribute only, which is
    harmless: components that never emit never read it.
    """
    if isinstance(predictor, PipelinedPredictor):
        predictor.probe = probe
        instrument_predictor(predictor.inner, probe)
        return
    predictor.probe = probe
    if isinstance(predictor, CAPPredictor):
        _instrument_cap_component(predictor.component, probe)
    elif isinstance(predictor, StridePredictor):
        predictor.logic.probe = probe
    elif isinstance(predictor, HybridPredictor):
        _instrument_cap_component(predictor.cap, probe)
        predictor.stride_logic.probe = probe


def _instrument_cap_component(
    component: CAPComponent, probe: AttributionCounters
) -> None:
    component.probe = probe
    component.link_table.probe = probe


def new_metrics(
    predictor: AddressPredictor,
    name: str = "",
    trace: str = "",
    suite: str = "",
    instrument: bool = False,
) -> PredictorMetrics:
    """Fresh counters for one evaluation of ``predictor``.

    ``name`` defaults to the predictor's own.  With ``instrument=True``
    the result is an :class:`~repro.eval.metrics.AttributionCounters`
    attached to the predictor tree as its probe, so the attribution
    events land in the same object that counts the predictions.
    """
    label = name or predictor.name
    if not instrument:
        return PredictorMetrics(name=label, trace=trace, suite=suite)
    metrics = AttributionCounters(name=label, trace=trace, suite=suite)
    instrument_predictor(predictor, metrics)
    return metrics


def _columns_of(events: Iterable[Sequence[int]]) -> PredictorStream:
    """Pack ``(tag, ip, a, b)`` tuples into a columnar stream."""
    tag, ip, a, b = [list(col) for col in zip(*events)] or [[], [], [], []]
    return PredictorStream(tag, ip, a, b)


def run_on_stream(
    predictor: AddressPredictor,
    stream: Iterable[Sequence[int]],
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> PredictorMetrics:
    """:func:`run_on_columns` over a list of ``(tag, ip, a, b)`` tuples.

    ``stream`` items follow :meth:`repro.trace.Trace.predictor_stream`:
    ``(1, ip, addr, offset)`` loads, ``(0, ip, taken, 0)`` branches,
    ``(2, ip, 0, 0)`` calls, ``(3, ip, 0, 0)`` returns.
    """
    return run_on_columns(
        predictor, _columns_of(stream), metrics, warmup_loads, observer
    )


def run_on_columns(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> PredictorMetrics:
    """Evaluate ``predictor`` over a :class:`PredictorStream`.

    Dispatches to the batch kernels (:mod:`repro.kernels`) when the
    predictor advertises ``supports_batch``, the resolved backend is
    ``numpy`` and no observer is attached; otherwise runs
    :func:`run_scalar`.  Either way exactly one dispatch outcome is
    tallied and ``metrics.backend`` records which path actually ran.
    """
    result = try_run_batch(predictor, stream, metrics, warmup_loads, observer)
    if result is None:
        run_scalar(predictor, stream, metrics, warmup_loads, observer)
    return metrics


def load_outcomes(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
) -> np.ndarray:
    """:func:`run_on_columns` that also returns each load's outcome.

    The result is an int8 column with one entry per ``tag == 1`` event in
    stream order: +1 for a correct speculative access, -1 for a wrong
    one, 0 for none.  This is the column
    :func:`repro.timing.ooo.simulate` schedules.
    """
    result = try_run_batch(predictor, stream, metrics)
    if result is not None:
        signed = np.where(result.correct, 1, -1).astype(np.int8)
        return np.where(result.speculative, signed, np.int8(0))
    outcomes: List[int] = []
    append = outcomes.append

    def observe(
        ip: int, offset: int, actual: int, prediction: Prediction
    ) -> None:
        if prediction.speculative:
            append(1 if prediction.address == actual else -1)
        else:
            append(0)

    run_scalar(predictor, stream, metrics, observer=observe)
    return np.array(outcomes, dtype=np.int8)


def run_scalar(
    predictor: AddressPredictor,
    stream: PredictorStream,
    metrics: PredictorMetrics,
    warmup_loads: int = 0,
    observer: Optional[Callable] = None,
) -> PredictorMetrics:
    """The per-event reference loop, with no kernel dispatch.

    ``warmup_loads`` loads at the start train the predictor without being
    counted (the paper's 30M-instruction traces amortise warm-up; short
    synthetic traces may not).

    ``observer`` (when given) is called as ``observer(ip, offset, actual,
    prediction)`` for every dynamic load, between prediction and table
    update — the hook the differential verification harness and the
    served sessions use to capture per-access predictions.

    ``zip`` over the four parallel columns lets CPython recycle the event
    tuple every iteration, and the correctness counters accumulate in
    locals, folded into ``metrics`` once at the end.
    """
    predict = predictor.predict
    update = predictor.update
    on_branch = predictor.on_branch
    on_call = predictor.on_call
    on_return = predictor.on_return
    seen_loads = 0
    loads = predictions = correct_predictions = 0
    speculative = correct_speculative = 0
    metrics.backend = "python"

    for tag, ip, a, b in zip(*stream.lists()):
        if tag == 1:
            prediction = predict(ip, b)
            if observer is not None:
                observer(ip, b, a, prediction)
            seen_loads += 1
            if seen_loads > warmup_loads:
                loads += 1
                correct = prediction.address == a
                if prediction.made:
                    predictions += 1
                    if correct:
                        correct_predictions += 1
                if prediction.speculative:
                    speculative += 1
                    if correct:
                        correct_speculative += 1
            update(ip, b, a, prediction)
        elif tag == 0:
            on_branch(ip, bool(a))
        elif tag == 2:
            on_call(ip)
        else:
            on_return(ip)

    metrics.loads += loads
    metrics.predictions += predictions
    metrics.correct_predictions += correct_predictions
    metrics.speculative += speculative
    metrics.correct_speculative += correct_speculative
    return metrics


def run_predictor(
    predictor: AddressPredictor,
    trace: Union[Trace, PredictorStream, list],
    name: Optional[str] = None,
    warmup_loads: int = 0,
    instrument: bool = False,
) -> PredictorMetrics:
    """Evaluate ``predictor`` on ``trace`` and return fresh metrics.

    ``trace`` may be a :class:`Trace` (evaluated through its columnar
    stream), a :class:`PredictorStream`, or an already-extracted list of
    stream tuples (useful when evaluating many predictors over one trace).

    With ``instrument=True`` the result is an
    :class:`~repro.eval.metrics.AttributionCounters` carrying the
    per-component misprediction-cause breakdown (see :func:`new_metrics`).
    """
    trace_name = ""
    suite = ""
    if isinstance(trace, Trace):
        stream = trace.predictor_columns()
        trace_name = trace.name
        suite = trace.meta.get("suite", "")
    elif isinstance(trace, PredictorStream):
        stream = trace
    else:
        stream = _columns_of(trace)
    metrics = new_metrics(predictor, name or "", trace_name, suite, instrument)
    return run_on_columns(predictor, stream, metrics, warmup_loads)
