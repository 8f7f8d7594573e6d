"""Experiment drivers: one per figure/table of the paper's evaluation.

Every driver returns a result object carrying both the raw per-trace data
and a ``render()`` that prints the same rows/series the paper's figure
shows.  Drivers accept a ``traces`` list (names) and per-trace instruction
budget so the benchmark harness can trade fidelity for runtime; defaults
reproduce the full 45-trace roster.

Figure map (see DESIGN.md for the full experiment index):

========  ==========================================================
fig5      prediction rate/accuracy of stride, CAP, hybrid per suite
fig6      hybrid vs Load Buffer size/associativity
lt_sweep  hybrid vs Link Table size (Section 4.2 text)
fig7      processor speedup per trace (immediate update)
lt_update_policy  Section 4.3's three LT update policies
fig8      selector state distribution + correct-selection rate
fig9      correct predictions vs history length, +/- global correlation
fig10     LT tags and control-flow indications vs misprediction rate
fig11     prediction rate/accuracy vs prediction gap
fig12     processor speedup at a prediction gap of 8
baselines Section 1's last-address/stride coverage claims
control_based  Section 3.6's g-share / call-path address predictors
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..predictors.cap import CORRELATION_BASE, CORRELATION_REAL, CAPConfig
from ..predictors.confidence import CFI_LAST, CFI_OFF
from ..predictors.gshare_address import HISTORY_BRANCH, HISTORY_CALL_PATH
from ..predictors.hybrid import (
    UPDATE_ALWAYS,
    UPDATE_UNLESS_STRIDE_CORRECT,
    UPDATE_UNLESS_STRIDE_SELECTED,
)
from ..predictors.link_table import LinkTableConfig
from ..timing.machine import MachineConfig
from ..workloads import suites as suite_registry
from .charts import grouped_bar_chart
from .engine import Job, run_jobs
from .metrics import PredictorMetrics, SuiteMetrics, aggregate_by_suite
from .report import format_percent, format_speedup, format_table

__all__ = [
    "fig5",
    "fig6",
    "lt_sweep",
    "fig7",
    "lt_update_policy",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "baselines",
    "control_based",
    "value_vs_address",
    "quick_trace_set",
]

SUITE_ORDER = ("CAD", "GAM", "INT", "JAV", "MM", "NT", "TPC", "W95", "Average")


def quick_trace_set() -> List[str]:
    """A reduced roster: the first two traces of every suite."""
    names: List[str] = []
    for suite in suite_registry.SUITE_NAMES:
        names.extend(suite_registry.trace_names(suite)[:2])
    return names


def _resolve_traces(traces: Optional[Iterable[str]]) -> List[str]:
    return list(traces) if traces is not None else suite_registry.trace_names()


# ---------------------------------------------------------------------------
# Engine variant specs
# ---------------------------------------------------------------------------

#: (engine factory name, config overrides, prediction gap or None).
VariantSpec = Tuple[str, Dict[str, Any], Optional[int]]


def _spec(
    factory: str, gap: Optional[int] = None, **overrides: Any
) -> VariantSpec:
    """Shorthand for one predictor-variant spec of an experiment grid."""
    return (factory, overrides, gap)


def _grid_jobs(
    trace_names: List[str],
    variants: Dict[str, VariantSpec],
    instructions: Optional[int],
    warmup_fraction: float = 0.0,
    capture_selector: bool = False,
) -> List[Job]:
    """Jobs for a (trace x variant) grid, trace-outer for cache locality."""
    return [
        Job(
            trace=name,
            factory=factory,
            overrides=overrides,
            instructions=instructions,
            warmup_fraction=warmup_fraction,
            gap=gap,
            capture_selector=capture_selector,
            variant=variant,
        )
        for name in trace_names
        for variant, (factory, overrides, gap) in variants.items()
    ]


# ---------------------------------------------------------------------------
# Generic per-suite comparison result
# ---------------------------------------------------------------------------

@dataclass
class SuiteComparison:
    """Per-suite rates/accuracies for several predictor variants."""

    title: str
    variants: List[str]
    #: variant -> suite -> SuiteMetrics
    suites: Dict[str, Dict[str, SuiteMetrics]] = field(default_factory=dict)
    #: variant -> per-trace metrics (for drill-down)
    runs: Dict[str, List[PredictorMetrics]] = field(default_factory=dict)

    def suite_row(self, suite: str) -> List[str]:
        cells: List[str] = [suite]
        for variant in self.variants:
            combined = self.suites[variant][suite].combined
            cells.append(format_percent(combined.prediction_rate))
            cells.append(format_percent(combined.accuracy, 2))
        return cells

    def average(self, variant: str) -> PredictorMetrics:
        """Combined counters over every trace for one variant."""
        return self.suites[variant]["Average"].combined

    def suite_labels(self) -> List[str]:
        """Row order: the paper's suites first, then any extras, then Average.

        Registry (ingested) traces carry suite labels outside the paper's
        eight (``EXT`` by default); they are appended in sorted order so
        external benchmarks render instead of silently vanishing from the
        tables.
        """
        present = self.suites[self.variants[0]]
        labels = [
            suite for suite in SUITE_ORDER
            if suite != "Average" and suite in present
        ]
        labels.extend(sorted(
            suite for suite in present
            if suite not in SUITE_ORDER
        ))
        labels.append("Average")
        return labels

    def render(self) -> str:
        headers = ["suite"]
        for variant in self.variants:
            headers += [f"{variant} rate", f"{variant} acc"]
        rows = [self.suite_row(suite) for suite in self.suite_labels()]
        return format_table(headers, rows, title=self.title)

    def render_chart(self, width: int = 40) -> str:
        """The same data as grouped bars, like the paper's figure."""
        labels = self.suite_labels()
        series = {
            variant: [
                self.suites[variant][suite].combined.prediction_rate
                for suite in labels
            ]
            for variant in self.variants
        }
        return grouped_bar_chart(labels, series, width=width, title=self.title)


def _compare(
    title: str,
    variants: Dict[str, VariantSpec],
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    warmup_fraction: float = 0.0,
) -> SuiteComparison:
    trace_names = _resolve_traces(traces)
    result = SuiteComparison(title=title, variants=list(variants))
    jobs = _grid_jobs(trace_names, variants, instructions, warmup_fraction)
    runs: Dict[str, List[PredictorMetrics]] = {v: [] for v in variants}
    for job_result in run_jobs(jobs):
        runs[job_result.variant].append(job_result.metrics)
    result.runs = runs
    result.suites = {
        variant: aggregate_by_suite(metrics_list, name=variant)
        for variant, metrics_list in runs.items()
    }
    return result


# ---------------------------------------------------------------------------
# Figure 5 — stride vs CAP vs hybrid, per suite
# ---------------------------------------------------------------------------

def fig5(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SuiteComparison:
    """Prediction performance of the different predictors (Figure 5)."""
    return _compare(
        "Figure 5: prediction rate and accuracy per suite",
        {
            "stride": _spec("stride"),
            "cap": _spec("cap"),
            "hybrid": _spec("hybrid"),
        },
        traces,
        instructions,
    )


# ---------------------------------------------------------------------------
# Figure 6 — hybrid vs LB geometry
# ---------------------------------------------------------------------------

def fig6(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    geometries: Optional[List[Tuple[int, int]]] = None,
) -> SuiteComparison:
    """Hybrid prediction rate vs LB entries/associativity (Figure 6)."""
    geometries = geometries or [
        (2048, 2), (4096, 1), (4096, 2), (4096, 4), (8192, 2),
    ]
    variants = {
        f"{entries // 1024}K,{ways}way": _spec(
            "hybrid", lb_entries=entries, lb_ways=ways
        )
        for entries, ways in geometries
    }
    return _compare(
        "Figure 6: hybrid prediction rate vs Load Buffer geometry",
        variants, traces, instructions,
    )


# ---------------------------------------------------------------------------
# Section 4.2 text — LT size sweep
# ---------------------------------------------------------------------------

def lt_sweep(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    sizes: Optional[List[int]] = None,
) -> SuiteComparison:
    """Hybrid prediction rate vs Link Table size (Section 4.2 text)."""
    sizes = sizes or [1024, 2048, 4096, 8192]
    variants = {
        f"LT {size // 1024}K": _spec(
            "hybrid", cap=CAPConfig(lt=LinkTableConfig(entries=size))
        )
        for size in sizes
    }
    return _compare(
        "Section 4.2: hybrid prediction rate vs Link Table size",
        variants, traces, instructions,
    )


# ---------------------------------------------------------------------------
# Figure 7 / Figure 12 — processor speedups
# ---------------------------------------------------------------------------

@dataclass
class SpeedupResult:
    """Per-trace speedups of address-predicting configurations."""

    title: str
    variants: List[str]
    #: trace -> {variant: speedup}
    per_trace: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: trace -> suite
    suite_of: Dict[str, str] = field(default_factory=dict)
    #: trace -> baseline cycles
    base_cycles: Dict[str, int] = field(default_factory=dict)

    def suite_average(self, variant: str) -> Dict[str, float]:
        """Cycle-weighted per-suite speedup (plus overall 'Average')."""
        base: Dict[str, int] = {}
        improved: Dict[str, float] = {}
        for trace, per_variant in self.per_trace.items():
            for bucket in (self.suite_of[trace], "Average"):
                base[bucket] = base.get(bucket, 0) + self.base_cycles[trace]
                improved[bucket] = improved.get(bucket, 0.0) + (
                    self.base_cycles[trace] / per_variant[variant]
                )
        return {
            bucket: base[bucket] / improved[bucket] for bucket in base
        }

    def render(self) -> str:
        headers = ["trace"] + list(self.variants)
        rows = []
        for trace in self.per_trace:
            rows.append(
                [trace]
                + [format_speedup(self.per_trace[trace][v]) for v in self.variants]
            )
        for variant in self.variants:
            averages = self.suite_average(variant)
            rows.append(
                [f"Average ({variant})"]
                + [
                    format_speedup(averages["Average"]) if v == variant else "-"
                    for v in self.variants
                ]
            )
        return format_table(headers, rows, title=self.title)


_BASELINE = "__baseline__"


def _speedups(
    title: str,
    variants: Dict[str, VariantSpec],
    traces: Optional[Iterable[str]],
    instructions: Optional[int],
    machine: Optional[MachineConfig] = None,
) -> SpeedupResult:
    trace_names = _resolve_traces(traces)
    result = SpeedupResult(title=title, variants=list(variants))
    jobs: List[Job] = []
    for name in trace_names:
        jobs.append(Job(
            trace=name, instructions=instructions, kind="timing",
            machine=machine, variant=_BASELINE,
        ))
        for variant, (factory, overrides, gap) in variants.items():
            jobs.append(Job(
                trace=name, factory=factory, overrides=overrides,
                instructions=instructions, gap=gap, kind="timing",
                machine=machine, variant=variant,
            ))
    base_cycles: Dict[str, int] = {}
    for job_result in run_jobs(jobs):
        name = job_result.trace
        if job_result.variant == _BASELINE:
            base_cycles[name] = job_result.cycles
            result.base_cycles[name] = job_result.cycles
            result.suite_of[name] = job_result.suite
            result.per_trace[name] = {}
        else:
            # The baseline job precedes its variants in job order.
            result.per_trace[name][job_result.variant] = (
                base_cycles[name] / job_result.cycles
            )
    return result


def fig7(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
) -> SpeedupResult:
    """Relative performance of stride and hybrid predictors (Figure 7)."""
    return _speedups(
        "Figure 7: speedup over no address prediction (immediate update)",
        {
            "stride": _spec("stride"),
            "hybrid": _spec("hybrid"),
        },
        traces, instructions, machine,
    )


def fig12(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    gap: int = 8,
    machine: Optional[MachineConfig] = None,
) -> SpeedupResult:
    """Speedups with a realistic prediction gap (Figure 12)."""
    return _speedups(
        f"Figure 12: speedup at prediction gap {gap} vs immediate",
        {
            "stride imm": _spec("stride"),
            f"stride g{gap}": _spec("stride", gap=gap),
            "hybrid imm": _spec("hybrid"),
            f"hybrid g{gap}": _spec("hybrid", gap=gap),
        },
        traces, instructions, machine,
    )


# ---------------------------------------------------------------------------
# Section 4.3 — LT update policies
# ---------------------------------------------------------------------------

def lt_update_policy(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SuiteComparison:
    """The three LT update policies of Section 4.3."""
    return _compare(
        "Section 4.3: Link Table update policies (hybrid)",
        {
            "always": _spec("hybrid", lt_update_policy=UPDATE_ALWAYS),
            "unless stride ok": _spec(
                "hybrid", lt_update_policy=UPDATE_UNLESS_STRIDE_CORRECT
            ),
            "unless selected": _spec(
                "hybrid", lt_update_policy=UPDATE_UNLESS_STRIDE_SELECTED
            ),
        },
        traces, instructions,
    )


# ---------------------------------------------------------------------------
# Figure 8 — selector behaviour
# ---------------------------------------------------------------------------

@dataclass
class SelectorResult:
    """Selector counter-state distribution and selection quality."""

    title: str
    #: suite -> {state name: fraction}
    distributions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: suite -> correct-selection rate
    correct_selection: Dict[str, float] = field(default_factory=dict)
    #: suite -> share of speculative accesses predicted by both components
    dual_share: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        states = ["strong stride", "weak stride", "weak cap", "strong cap"]
        headers = ["suite"] + states + ["correct sel", "dual share"]
        rows = []
        for suite in SUITE_ORDER:
            if suite not in self.distributions:
                continue
            dist = self.distributions[suite]
            rows.append(
                [suite]
                + [format_percent(dist.get(s, 0.0)) for s in states]
                + [
                    format_percent(self.correct_selection[suite], 2),
                    format_percent(self.dual_share[suite]),
                ]
            )
        return format_table(headers, rows, title=self.title)


def fig8(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SelectorResult:
    """Selector performance of the hybrid predictor (Figure 8)."""
    trace_names = _resolve_traces(traces)
    result = SelectorResult(title="Figure 8: hybrid selector performance")
    per_suite: Dict[str, List] = {}
    jobs = _grid_jobs(
        trace_names, {"hybrid": _spec("hybrid")}, instructions,
        capture_selector=True,
    )
    for job_result in run_jobs(jobs):
        per_suite.setdefault(job_result.suite, []).append(
            job_result.selector_stats
        )
        per_suite.setdefault("Average", []).append(job_result.selector_stats)
    for suite, stats_list in per_suite.items():
        counts: Dict[str, int] = {}
        sel_hits = sel_total = dual = spec = 0
        for stats in stats_list:
            for state, count in stats.states.counts.items():
                counts[state] = counts.get(state, 0) + count
            sel_hits += stats.selection.hits
            sel_total += stats.selection.total
            dual += stats.dual_speculative
            spec += stats.speculative
        total = sum(counts.values()) or 1
        result.distributions[suite] = {
            state: count / total for state, count in counts.items()
        }
        result.correct_selection[suite] = sel_hits / sel_total if sel_total else 0.0
        result.dual_share[suite] = dual / spec if spec else 0.0
    return result


# ---------------------------------------------------------------------------
# Figure 9 — history length and global correlation
# ---------------------------------------------------------------------------

@dataclass
class HistoryLengthResult:
    """Correct predictions vs history length, with/without correlation."""

    title: str
    lengths: List[int]
    #: correlation label -> [correct rate per length]
    series: Dict[str, List[float]] = field(default_factory=dict)

    def best_length(self, label: str) -> int:
        values = self.series[label]
        return self.lengths[values.index(max(values))]

    def render(self) -> str:
        headers = ["history length"] + [str(n) for n in self.lengths]
        rows = [
            [label] + [format_percent(v) for v in values]
            for label, values in self.series.items()
        ]
        return format_table(headers, rows, title=self.title)

    def render_chart(self, width: int = 40) -> str:
        """Correct-prediction bars per history length."""
        labels = [str(n) for n in self.lengths]
        return grouped_bar_chart(
            labels, dict(self.series), width=width, title=self.title,
        )


def fig9(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    lengths: Optional[List[int]] = None,
) -> HistoryLengthResult:
    """Correct predictions vs history length (Figure 9).

    Per the paper, no confidence mechanism is used here: the metric is
    correct predictions out of all dynamic loads, with LT tags and CFI
    disabled, isolating the influence of global correlation.
    """
    lengths = lengths or [1, 2, 3, 4, 6, 12]
    trace_names = _resolve_traces(traces)
    result = HistoryLengthResult(
        title="Figure 9: correct predictions vs history length",
        lengths=lengths,
    )
    modes = {
        "global correlation": CORRELATION_BASE,
        "no global correlation": CORRELATION_REAL,
    }
    variants = {
        f"{label}|{n}": _spec(
            "cap",
            correlation=mode,
            history_length=n,
            cfi_mode=CFI_OFF,
            lt=LinkTableConfig(tag_bits=0),
        )
        for label, mode in modes.items()
        for n in lengths
    }
    totals = {
        (label, n): PredictorMetrics() for label in modes for n in lengths
    }
    for job_result in run_jobs(_grid_jobs(trace_names, variants, instructions)):
        label, n = job_result.variant.rsplit("|", 1)
        totals[(label, int(n))].add(job_result.metrics)
    for label in modes:
        result.series[label] = [
            totals[(label, n)].correct_predictions / totals[(label, n)].loads
            if totals[(label, n)].loads else 0.0
            for n in lengths
        ]
    return result


# ---------------------------------------------------------------------------
# Figure 10 — LT tags and control-flow indications
# ---------------------------------------------------------------------------

@dataclass
class ConfidenceResult:
    """Prediction/misprediction rates per confidence configuration."""

    title: str
    configs: List[str]
    prediction_rate: Dict[str, float] = field(default_factory=dict)
    misprediction_rate: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["confidence", "prediction rate", "misprediction rate"]
        rows = [
            [
                cfg,
                format_percent(self.prediction_rate[cfg]),
                format_percent(self.misprediction_rate[cfg], 2),
            ]
            for cfg in self.configs
        ]
        return format_table(headers, rows, title=self.title)


def fig10(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> ConfidenceResult:
    """Influence of LT tags and path information on CAP (Figure 10)."""
    configs: Dict[str, VariantSpec] = {
        "no tag": _spec(
            "cap", cfi_mode=CFI_OFF, lt=LinkTableConfig(tag_bits=0)
        ),
        "4-bit tag": _spec(
            "cap", cfi_mode=CFI_OFF, lt=LinkTableConfig(tag_bits=4)
        ),
        "8-bit tag": _spec(
            "cap", cfi_mode=CFI_OFF, lt=LinkTableConfig(tag_bits=8)
        ),
        "4-bit tag + path": _spec(
            "cap", cfi_mode=CFI_LAST, lt=LinkTableConfig(tag_bits=4)
        ),
        "8-bit tag + path": _spec(
            "cap", cfi_mode=CFI_LAST, lt=LinkTableConfig(tag_bits=8)
        ),
    }
    trace_names = _resolve_traces(traces)
    result = ConfidenceResult(
        title="Figure 10: LT tags / CFI vs CAP performance",
        configs=list(configs),
    )
    totals = {cfg: PredictorMetrics() for cfg in configs}
    for job_result in run_jobs(_grid_jobs(trace_names, configs, instructions)):
        totals[job_result.variant].add(job_result.metrics)
    for cfg, metrics in totals.items():
        result.prediction_rate[cfg] = metrics.prediction_rate
        result.misprediction_rate[cfg] = metrics.misprediction_rate
    return result


# ---------------------------------------------------------------------------
# Figure 11 — prediction gap sweep
# ---------------------------------------------------------------------------

@dataclass
class GapResult:
    """Prediction rate/accuracy vs prediction gap."""

    title: str
    gaps: List[int]
    #: variant -> gap -> (rate, accuracy, correct_rate)
    series: Dict[str, Dict[int, Tuple[float, float, float]]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        headers = ["variant"]
        for gap in self.gaps:
            label = "imm" if gap == 0 else f"gap {gap}"
            headers += [f"{label} rate", f"{label} acc"]
        rows = []
        for variant, per_gap in self.series.items():
            row = [variant]
            for gap in self.gaps:
                rate, acc, _ = per_gap[gap]
                row += [format_percent(rate), format_percent(acc, 2)]
            rows.append(row)
        return format_table(headers, rows, title=self.title)

    def render_chart(self, width: int = 40) -> str:
        """Prediction-rate bars per gap, one series per predictor."""
        labels = ["imm" if g == 0 else f"gap {g}" for g in self.gaps]
        series = {
            variant: [per_gap[g][0] for g in self.gaps]
            for variant, per_gap in self.series.items()
        }
        return grouped_bar_chart(labels, series, width=width, title=self.title)


def fig11(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    gaps: Optional[List[int]] = None,
) -> GapResult:
    """Influence of the prediction gap on the predictors (Figure 11)."""
    gaps = gaps or [0, 4, 8, 12]
    trace_names = _resolve_traces(traces)
    result = GapResult(
        title="Figure 11: prediction gap influence", gaps=gaps,
    )
    variants = ("stride", "hybrid")
    grid = {
        f"{variant}|{gap}": _spec(variant, gap=gap)
        for variant in variants
        for gap in gaps
    }
    totals = {(v, g): PredictorMetrics() for v in variants for g in gaps}
    for job_result in run_jobs(_grid_jobs(trace_names, grid, instructions)):
        variant, gap = job_result.variant.rsplit("|", 1)
        totals[(variant, int(gap))].add(job_result.metrics)
    for variant in variants:
        result.series[variant] = {}
        for gap in gaps:
            metrics = totals[(variant, gap)]
            result.series[variant][gap] = (
                metrics.prediction_rate,
                metrics.accuracy,
                metrics.correct_rate,
            )
    return result


# ---------------------------------------------------------------------------
# Section 1 claims and Section 3.6 control-based predictors
# ---------------------------------------------------------------------------

def baselines(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SuiteComparison:
    """Last-address vs stride coverage (Section 1's 40% / +13% claims)."""
    return _compare(
        "Section 1: last-address and stride baselines",
        {
            "last": _spec("last_address"),
            "basic stride": _spec("basic_stride"),
            "enh stride": _spec("stride"),
        },
        traces, instructions,
    )


def control_based(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> SuiteComparison:
    """Section 3.6: control-based address predictors vs CAP."""
    return _compare(
        "Section 3.6: control-based address predictors",
        {
            "gshare": _spec("gshare", history_mode=HISTORY_BRANCH),
            "call-path": _spec("gshare", history_mode=HISTORY_CALL_PATH),
            "cap": _spec("cap"),
        },
        traces, instructions,
    )


# ---------------------------------------------------------------------------
# Section 1: address prediction vs load-value prediction
# ---------------------------------------------------------------------------

@dataclass
class ValueVsAddressResult:
    """Predictability of load values vs load addresses."""

    title: str
    #: variant -> (prediction_rate, accuracy, ceiling)
    rows: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["predictor", "pred rate", "accuracy", "ceiling"]
        table_rows = [
            [
                name,
                format_percent(rate),
                format_percent(acc, 2),
                format_percent(ceiling),
            ]
            for name, (rate, acc, ceiling) in self.rows.items()
        ]
        return format_table(headers, table_rows, title=self.title)


def value_vs_address(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
) -> ValueVsAddressResult:
    """Section 1's claim: load values are less predictable than addresses.

    Runs the last-value and stride-value predictors over the loaded *data*
    and the hybrid over the *addresses* of the same traces.  A value
    predictor is an address predictor run over the trace's value stream
    (``kind="value"`` jobs): last-value is ``last_address`` and
    stride-value is ``basic_stride``.  ``ceiling`` is the confidence-free
    correct-prediction share.
    """
    rows = {
        "last-value": ("last_address", "value"),
        "stride-value": ("basic_stride", "value"),
        "hybrid (address)": ("hybrid", "predict"),
    }
    jobs = [
        Job(
            trace=name, factory=factory, instructions=instructions,
            kind=kind, variant=label,
        )
        for name in _resolve_traces(traces)
        for label, (factory, kind) in rows.items()
    ]
    totals = {label: PredictorMetrics(name=label) for label in rows}
    for job_result in run_jobs(jobs):
        totals[job_result.variant].add(job_result.metrics)

    result = ValueVsAddressResult(
        title="Section 1: load-value vs load-address predictability",
    )
    for label, metrics in totals.items():
        ceiling = (
            metrics.correct_predictions / metrics.loads
            if metrics.loads else 0.0
        )
        result.rows[label] = (metrics.prediction_rate, metrics.accuracy, ceiling)
    return result
