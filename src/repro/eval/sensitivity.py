"""Generic parameter-sensitivity sweeps.

The paper's Section 6 closes with "tuning the predictor parameters to
increase predictor performance ... determining the right amount of
information is an art unto itself."  This module makes that art cheap:
sweep any config knob of any predictor over any trace set and get the
same rate/accuracy tables the figure drivers produce.  A sweep is an
engine grid like the figure drivers: one job per (trace, value), so it
honours ``REPRO_JOBS`` and, under ``REPRO_TELEMETRY=1``, writes a run
manifest per job.

Example::

    from repro.eval.sensitivity import sweep
    result = sweep(
        "cap.confidence_threshold",
        values=[1, 2, 3, 4],
        traces=["INT_xli", "GAM_duk"],
    )
    print(result.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..predictors.cap import CAPConfig
from ..predictors.hybrid import HybridConfig
from ..predictors.stride import StrideConfig
from ..workloads import suites as suite_registry
from .engine import Job, run_jobs
from .metrics import PredictorMetrics
from .report import format_percent, format_table

__all__ = ["SweepResult", "sweep", "SWEEPABLE"]

#: predictor kind (an engine factory name) -> its config class
_KINDS = {
    "cap": CAPConfig,
    "stride": StrideConfig,
    "hybrid": HybridConfig,
}

#: Knobs with documented paper relevance, for `python -m repro sweep --list`.
SWEEPABLE = {
    "cap.confidence_threshold": "saturating-counter firing point (Sec 3.4)",
    "cap.history_length": "addresses folded into the context (Sec 3.2)",
    "cap.cfi_bits": "GHR bits in the control-flow indication (Sec 3.4)",
    "cap.offset_bits": "offset LSBs kept in the LB (Sec 3.3)",
    "stride.confidence_threshold": "stride confidence firing point",
    "stride.cfi_bits": "stride CFI width",
    "hybrid.selector_init": "initial selector bias (Sec 4.2)",
    "hybrid.lb_entries": "shared Load Buffer capacity (Fig 6)",
    "hybrid.lb_ways": "shared Load Buffer associativity (Fig 6)",
}


@dataclass
class SweepResult:
    """Aggregate metrics per swept value."""

    knob: str
    values: List[object]
    #: value -> combined metrics
    metrics: Dict[object, PredictorMetrics] = field(default_factory=dict)

    def best(self, by: str = "correct_rate") -> object:
        """The swept value maximising the given metric attribute."""
        return max(self.values, key=lambda v: getattr(self.metrics[v], by))

    def render(self) -> str:
        headers = [self.knob, "pred rate", "accuracy", "correct"]
        rows = [
            [
                str(value),
                format_percent(m.prediction_rate),
                format_percent(m.accuracy, 2),
                format_percent(m.correct_rate),
            ]
            for value, m in (
                (v, self.metrics[v]) for v in self.values
            )
        ]
        return format_table(
            headers, rows, title=f"Sensitivity sweep: {self.knob}",
        )


def sweep(
    knob: str,
    values: Sequence[object],
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SweepResult:
    """Evaluate a predictor config knob across ``values``.

    ``knob`` is ``"<kind>.<field>"`` with kind one of ``cap``, ``stride``,
    ``hybrid``; the field must exist on that kind's config dataclass.
    """
    try:
        kind, field_name = knob.split(".", 1)
    except ValueError:
        raise ValueError(
            f"knob must look like 'cap.history_length', got {knob!r}"
        ) from None
    if kind not in _KINDS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    config_cls = _KINDS[kind]
    if not hasattr(config_cls(), field_name):
        raise ValueError(f"{config_cls.__name__} has no field {field_name!r}")

    trace_names = (
        list(traces) if traces is not None else suite_registry.trace_names()
    )
    result = SweepResult(knob=knob, values=list(values))
    for value in values:
        result.metrics[value] = PredictorMetrics(name=f"{knob}={value}")

    cells = [(name, value) for name in trace_names for value in values]
    jobs = [
        Job(
            trace=name, factory=kind, overrides={field_name: value},
            instructions=instructions, variant=f"{knob}={value}",
        )
        for name, value in cells
    ]
    for (_, value), job_result in zip(cells, run_jobs(jobs)):
        result.metrics[value].add(job_result.metrics)
    return result
