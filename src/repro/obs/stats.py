"""Reporting backend for ``python -m repro stats``.

Three consumers of the observability layer live here:

* :func:`collect_breakdown` runs an instrumented (variant x trace) grid
  through the experiment engine and aggregates the per-component
  attribution counters into a Figure 10-style misprediction-cause
  breakdown (`BreakdownResult`, rendered as text, JSON or CSV);
* :func:`summarize_manifests` tabulates a directory of run manifests —
  the quick "what did that run cost" view;
* :func:`diff_manifests` compares two manifest sets (baseline vs
  candidate) and flags wall-clock / throughput / accuracy regressions.

This module sits at the *top* of the import graph: it pulls in the
experiment engine, so nothing below ``eval`` may import it (the
``repro.obs`` package ``__init__`` deliberately leaves it out).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..eval.engine import Job, run_jobs
from ..eval.metrics import ATTRIBUTION_FIELDS, AttributionCounters
from ..eval.report import format_percent, format_table
from ..workloads import suites as suite_registry
from .manifest import load_manifests
from .schema import load_schema, validate_manifest
from .schema import validate as schema_validate

__all__ = [
    "BENCH_SCHEMA_ID",
    "BreakdownResult",
    "DEFAULT_VARIANTS",
    "ManifestDiff",
    "SLO_SCHEMA_ID",
    "bench_regression",
    "check_bench_file",
    "check_slo_report",
    "collect_breakdown",
    "diff_manifests",
    "render_bench_history",
    "render_slo_report",
    "summarize_manifests",
    "validate_directory",
]

#: The Figure 5 predictor roster: variant label -> (factory, overrides, gap).
DEFAULT_VARIANTS: Dict[str, Tuple[str, Dict[str, Any], Optional[int]]] = {
    "stride": ("stride", {}, None),
    "cap": ("cap", {}, None),
    "hybrid": ("hybrid", {}, None),
}


# ---------------------------------------------------------------------------
# Misprediction-cause breakdown
# ---------------------------------------------------------------------------

@dataclass
class BreakdownResult:
    """Aggregated attribution counters for several predictor variants."""

    title: str
    variants: List[str]
    #: variant -> counters summed over every trace
    totals: Dict[str, AttributionCounters] = field(default_factory=dict)
    #: variant -> per-trace counters (for drill-down / CSV)
    per_trace: Dict[str, List[AttributionCounters]] = field(
        default_factory=dict
    )

    def render_text(self) -> str:
        """Headline rates plus the per-cause table, like Figure 10."""
        headline = format_table(
            ["variant", "loads", "pred rate", "accuracy", "mispred rate"],
            [
                [
                    variant,
                    total.loads,
                    format_percent(total.prediction_rate),
                    format_percent(total.accuracy, 2),
                    format_percent(total.misprediction_rate, 2),
                ]
                for variant, total in self.totals.items()
            ],
            title=self.title,
        )
        headers = ["cause"]
        for variant in self.variants:
            headers += [variant, "/1k loads"]
        rows: List[List[object]] = []
        for cause in ATTRIBUTION_FIELDS:
            row: List[object] = [cause]
            for variant in self.variants:
                total = self.totals[variant]
                count = total.attribution()[cause]
                per_k = 1000.0 * count / total.loads if total.loads else 0.0
                row += [count, f"{per_k:.2f}"]
            rows.append(row)
        causes = format_table(
            headers, rows, title="Attribution (event counts)",
        )
        return headline + "\n\n" + causes

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "variants": self.variants,
            "totals": {
                variant: _counters_record(total)
                for variant, total in self.totals.items()
            },
            "per_trace": {
                variant: [_counters_record(c) for c in counters]
                for variant, counters in self.per_trace.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Wide CSV: one row per (variant, trace) plus an ALL row each."""
        buffer = io.StringIO()
        columns = [
            "variant", "trace", "suite", "loads", "predictions",
            "speculative", "correct_speculative", "correct_predictions",
            *ATTRIBUTION_FIELDS,
        ]
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for variant in self.variants:
            for counters in self.per_trace.get(variant, []):
                writer.writerow(_csv_row(variant, counters))
            total = self.totals[variant]
            row = _csv_row(variant, total)
            row["trace"] = "ALL"
            row["suite"] = "ALL"
            writer.writerow(row)
        return buffer.getvalue()


def _counters_record(counters: AttributionCounters) -> Dict[str, Any]:
    return {
        "trace": counters.trace,
        "suite": counters.suite,
        "loads": counters.loads,
        "predictions": counters.predictions,
        "speculative": counters.speculative,
        "correct_speculative": counters.correct_speculative,
        "correct_predictions": counters.correct_predictions,
        "prediction_rate": counters.prediction_rate,
        "accuracy": counters.accuracy,
        "misprediction_rate": counters.misprediction_rate,
        "attribution": counters.attribution(),
    }


def _csv_row(variant: str, counters: AttributionCounters) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "variant": variant,
        "trace": counters.trace,
        "suite": counters.suite,
        "loads": counters.loads,
        "predictions": counters.predictions,
        "speculative": counters.speculative,
        "correct_speculative": counters.correct_speculative,
        "correct_predictions": counters.correct_predictions,
    }
    row.update(counters.attribution())
    return row


def collect_breakdown(
    traces: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    variants: Optional[
        Dict[str, Tuple[str, Dict[str, Any], Optional[int]]]
    ] = None,
    warmup_fraction: float = 0.0,
) -> BreakdownResult:
    """Run the instrumented grid and aggregate attribution counters.

    Jobs are emitted trace-outer (cache locality) and executed through
    :func:`repro.eval.engine.run_jobs`, so the breakdown parallelises
    under ``REPRO_JOBS`` exactly like the figure suite — the engine's
    deterministic merge keeps the aggregated counters identical across
    worker counts.
    """
    roster = variants if variants is not None else DEFAULT_VARIANTS
    trace_names = (
        list(traces) if traces is not None else suite_registry.trace_names()
    )
    jobs = [
        Job(
            trace=name,
            factory=factory,
            overrides=dict(overrides),
            instructions=instructions,
            warmup_fraction=warmup_fraction,
            gap=gap,
            variant=variant,
            instrument=True,
        )
        for name in trace_names
        for variant, (factory, overrides, gap) in roster.items()
    ]
    result = BreakdownResult(
        title="Misprediction-cause breakdown (attribution counters)",
        variants=list(roster),
    )
    totals = {
        variant: AttributionCounters(name=variant) for variant in roster
    }
    per_trace: Dict[str, List[AttributionCounters]] = {
        variant: [] for variant in roster
    }
    for job_result in run_jobs(jobs):
        metrics = job_result.metrics
        if not isinstance(metrics, AttributionCounters):
            raise TypeError(
                f"instrumented job for {job_result.variant!r} returned"
                f" {type(metrics).__name__}, expected AttributionCounters"
            )
        per_trace[job_result.variant].append(metrics)
        totals[job_result.variant] += metrics
    result.totals = totals
    result.per_trace = per_trace
    return result


# ---------------------------------------------------------------------------
# Manifest summarising / validation
# ---------------------------------------------------------------------------

def summarize_manifests(directory: Union[str, Path]) -> str:
    """One table row per manifest: identity, cost, and headline accuracy."""
    manifests = load_manifests(directory)
    if not manifests:
        return f"no manifests under {directory}"
    rows: List[List[object]] = []
    for manifest in manifests:
        job = manifest.get("job", {})
        run = manifest.get("run", {})
        metrics = manifest.get("metrics") or {}
        loads_per_sec = run.get("loads_per_sec")
        rows.append([
            job.get("variant", "?"),
            job.get("trace", "?"),
            job.get("kind", "?"),
            metrics.get("loads", "-"),
            f"{run.get('wall_s', 0.0):.2f}",
            f"{loads_per_sec:,.0f}" if loads_per_sec else "-",
            run.get("peak_rss_kb", "-"),
            (
                format_percent(metrics["accuracy"], 2)
                if "accuracy" in metrics else "-"
            ),
        ])
    return format_table(
        ["variant", "trace", "kind", "loads", "wall s", "loads/s",
         "rss KiB", "accuracy"],
        rows,
        title=f"{len(manifests)} manifest(s) under {directory}",
    )


def validate_directory(
    directory: Union[str, Path],
) -> List[Tuple[str, List[str]]]:
    """Schema-validate every manifest; returns (path, errors) per failure."""
    failures: List[Tuple[str, List[str]]] = []
    for manifest in load_manifests(directory):
        errors = validate_manifest(manifest)
        if errors:
            failures.append((manifest.get("_path", "?"), errors))
    return failures


# ---------------------------------------------------------------------------
# Manifest diffing (regression flagging)
# ---------------------------------------------------------------------------

@dataclass
class ManifestDiff:
    """Baseline-vs-candidate comparison of two manifest directories."""

    baseline: Union[str, Path]
    candidate: Union[str, Path]
    #: one record per matched (variant, trace) pair
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: human-readable regression flags (empty = clean)
    regressions: List[str] = field(default_factory=list)
    only_baseline: List[str] = field(default_factory=list)
    only_candidate: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        if self.rows:
            table_rows: List[List[object]] = []
            for row in self.rows:
                table_rows.append([
                    row["variant"],
                    row["trace"],
                    _signed_percent(row["wall_ratio"] - 1.0),
                    _signed_pp(row["accuracy_delta"]),
                    _signed_pp(row["rate_delta"]),
                    ",".join(row["flags"]) or "-",
                ])
            lines.append(format_table(
                ["variant", "trace", "wall Δ", "acc Δpp", "rate Δpp",
                 "flags"],
                table_rows,
                title=f"manifest diff: {self.baseline} -> {self.candidate}",
            ))
        for name in self.only_baseline:
            lines.append(f"only in baseline:  {name}")
        for name in self.only_candidate:
            lines.append(f"only in candidate: {name}")
        if self.regressions:
            lines.append("")
            lines.append(f"{len(self.regressions)} regression flag(s):")
            lines.extend(f"  - {item}" for item in self.regressions)
        else:
            lines.append("")
            lines.append("no regressions flagged")
        return "\n".join(lines)


def _signed_percent(value: float) -> str:
    return f"{value * 100:+.1f}%"


def _signed_pp(value: float) -> str:
    return f"{value * 100:+.2f}"


def _index_manifests(
    directory: Union[str, Path],
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    index: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for manifest in load_manifests(directory):
        job = manifest.get("job", {})
        key = (str(job.get("variant", "?")), str(job.get("trace", "?")))
        index[key] = manifest
    return index


def diff_manifests(
    baseline: Union[str, Path],
    candidate: Union[str, Path],
    wall_tolerance: float = 0.25,
    accuracy_tolerance: float = 0.005,
) -> ManifestDiff:
    """Compare two manifest sets, matched by (variant, trace).

    Flags a **perf** regression when the candidate's wall time exceeds
    the baseline's by more than ``wall_tolerance`` (fractional), and an
    **accuracy** regression when accuracy or prediction rate drops by
    more than ``accuracy_tolerance`` (absolute).  A changed config hash
    is reported as an informational flag, not a regression — a deliberate
    config change legitimately moves both.
    """
    result = ManifestDiff(baseline=baseline, candidate=candidate)
    base_index = _index_manifests(baseline)
    cand_index = _index_manifests(candidate)
    result.only_baseline = [
        f"{variant}/{trace}"
        for (variant, trace) in sorted(set(base_index) - set(cand_index))
    ]
    result.only_candidate = [
        f"{variant}/{trace}"
        for (variant, trace) in sorted(set(cand_index) - set(base_index))
    ]
    for key in sorted(set(base_index) & set(cand_index)):
        variant, trace = key
        old, new = base_index[key], cand_index[key]
        old_run, new_run = old.get("run", {}), new.get("run", {})
        old_metrics = old.get("metrics") or {}
        new_metrics = new.get("metrics") or {}
        old_wall = float(old_run.get("wall_s", 0.0))
        new_wall = float(new_run.get("wall_s", 0.0))
        wall_ratio = new_wall / old_wall if old_wall > 0 else 1.0
        accuracy_delta = (
            float(new_metrics.get("accuracy", 0.0))
            - float(old_metrics.get("accuracy", 0.0))
        )
        rate_delta = (
            float(new_metrics.get("prediction_rate", 0.0))
            - float(old_metrics.get("prediction_rate", 0.0))
        )
        flags: List[str] = []
        if wall_ratio > 1.0 + wall_tolerance:
            flags.append("perf")
            result.regressions.append(
                f"{variant}/{trace}: wall {old_wall:.2f}s ->"
                f" {new_wall:.2f}s ({_signed_percent(wall_ratio - 1.0)})"
            )
        if accuracy_delta < -accuracy_tolerance:
            flags.append("accuracy")
            result.regressions.append(
                f"{variant}/{trace}: accuracy"
                f" {_signed_pp(accuracy_delta)}pp"
            )
        if rate_delta < -accuracy_tolerance:
            flags.append("rate")
            result.regressions.append(
                f"{variant}/{trace}: prediction rate"
                f" {_signed_pp(rate_delta)}pp"
            )
        if old.get("config_hash") != new.get("config_hash"):
            flags.append("config")
        result.rows.append({
            "variant": variant,
            "trace": trace,
            "wall_ratio": wall_ratio,
            "accuracy_delta": accuracy_delta,
            "rate_delta": rate_delta,
            "flags": flags,
        })
    return result


# ---------------------------------------------------------------------------
# fig5 wall-clock trajectory (BENCH_fig5.json)
# ---------------------------------------------------------------------------

BENCH_SCHEMA_ID = "repro.bench_fig5/v1"

_BENCH_BACKENDS = ("python", "numpy")
_BENCH_ENTRY_KEYS = ("label", "recorded_at", "wall_s", "backend", "jobs")


def _load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_bench_file(path: Union[str, Path]) -> List[str]:
    """Schema problems in a bench trajectory file; ``[]`` when clean.

    Checked invariants: the schema id, the per-entry required keys and
    value domains, and chronological ``recorded_at`` order — append-only
    history, so a rewritten or reordered file fails the bench CI job.
    """
    try:
        payload = _load_bench(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    problems: List[str] = []
    if payload.get("schema") != BENCH_SCHEMA_ID:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA_ID!r}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + ["entries must be a non-empty list"]
    previous_stamp = ""
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in _BENCH_ENTRY_KEYS:
            if key not in entry:
                problems.append(f"{where}: missing {key!r}")
        wall = entry.get("wall_s")
        if not isinstance(wall, (int, float)) or wall <= 0:
            problems.append(f"{where}: wall_s must be positive, got {wall!r}")
        if entry.get("backend") not in _BENCH_BACKENDS:
            problems.append(
                f"{where}: backend must be one of {_BENCH_BACKENDS},"
                f" got {entry.get('backend')!r}"
            )
        jobs = entry.get("jobs")
        if not isinstance(jobs, int) or jobs < 1:
            problems.append(f"{where}: jobs must be a positive int, got {jobs!r}")
        stamp = entry.get("recorded_at")
        if not isinstance(stamp, str) or not stamp:
            problems.append(f"{where}: recorded_at must be an ISO timestamp")
        else:
            # ISO-8601 strings with a fixed UTC suffix order lexically.
            if stamp < previous_stamp:
                problems.append(
                    f"{where}: recorded_at {stamp!r} precedes the previous"
                    f" entry ({previous_stamp!r}); history is append-only"
                )
            previous_stamp = stamp
    return problems


def render_bench_history(path: Union[str, Path]) -> str:
    """The trajectory as a table, with speedups against the seed entry."""
    payload = _load_bench(path)
    entries = payload.get("entries", [])
    baseline = entries[0]["wall_s"] if entries else None
    rows = []
    for entry in entries:
        wall = entry["wall_s"]
        rows.append([
            entry["label"],
            entry["recorded_at"][:10],
            entry["backend"],
            entry["jobs"],
            f"{wall:.1f}",
            f"{baseline / wall:.2f}x" if baseline else "-",
            entry.get("note", ""),
        ])
    return format_table(
        ["label", "date", "backend", "jobs", "wall_s", "vs seed", "note"],
        rows,
        title=payload.get("benchmark", "fig5 wall-clock trajectory"),
    )


def bench_regression(
    path: Union[str, Path], tolerance: float = 0.15
) -> Optional[str]:
    """Gate message when the newest entry regressed; ``None`` when clean.

    The newest entry is compared against the *best* earlier run with the
    same backend and worker count — comparing across backends (or serial
    vs parallel) would gate apples against oranges.  ``tolerance`` is the
    allowed fractional slowdown (0.15 = 15%), absorbing host noise.
    """
    entries = _load_bench(path).get("entries", [])
    if len(entries) < 2:
        return None
    newest = entries[-1]
    peers = [
        entry["wall_s"]
        for entry in entries[:-1]
        if entry["backend"] == newest["backend"]
        and entry["jobs"] == newest["jobs"]
    ]
    if not peers:
        return None
    best = min(peers)
    if newest["wall_s"] > best * (1.0 + tolerance):
        return (
            f"bench regression: {newest['label']}"
            f" ({newest['backend']}, {newest['jobs']} worker(s)) took"
            f" {newest['wall_s']:.1f}s vs best {best:.1f}s"
            f" (+{(newest['wall_s'] / best - 1.0) * 100:.0f}%,"
            f" tolerance {tolerance * 100:.0f}%)"
        )
    return None


# ---------------------------------------------------------------------------
# Serving SLO reports (benchmarks/loadgen.py output)
# ---------------------------------------------------------------------------

SLO_SCHEMA_ID = "repro.slo_report/v1"
SLO_SCHEMA_PATH = Path(__file__).with_name("slo_report.schema.json")


def _load_slo(path: Union[str, Path]) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_slo_report(path: Union[str, Path]) -> List[str]:
    """Schema problems in a loadgen SLO report; ``[]`` when clean."""
    try:
        payload = _load_slo(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return schema_validate(payload, load_schema(SLO_SCHEMA_PATH))


def _ms(value: Optional[float]) -> str:
    return f"{value:.2f}" if value is not None else "-"


def render_slo_report(path: Union[str, Path]) -> str:
    """An SLO report as a saturation-curve table plus headline lines."""
    payload = _load_slo(path)
    server = payload["server"]
    workload = payload["workload"]
    totals = payload["totals"]
    slo = payload["slo"]
    rows = []
    for step in payload["steps"]:
        latency = step["latency_ms"]
        throughput = step["throughput_lps"]
        rows.append([
            step["concurrency"],
            step["sessions"],
            step["loads"],
            f"{throughput:.0f}" if throughput is not None else "-",
            _ms(latency["p50"]),
            _ms(latency.get("p90")),
            _ms(latency["p99"]),
            step["errors"],
        ])
    table = format_table(
        ["conc", "sessions", "loads", "loads/s", "p50ms", "p90ms",
         "p99ms", "errors"],
        rows,
        title=(
            "serving saturation curve — "
            + (
                f"trace:{workload['trace']}"
                if workload.get("trace")
                else workload["profile"]
            )
            + f"/{workload['mode']} @ {server['host']}:{server['port']}"
        ),
    )
    backends = ", ".join(
        f"{name}={count}"
        for name, count in sorted(totals.get("backends", {}).items())
    ) or "-"
    throughput_lps = slo["throughput_lps"]
    lines = [
        table,
        "",
        (
            f"SLO: p50={_ms(slo['p50_ms'])}ms p99={_ms(slo['p99_ms'])}ms"
            + (
                f" throughput={throughput_lps:.0f} loads/s"
                if throughput_lps is not None
                else " throughput=-"
            )
        ),
        (
            f"totals: sessions={totals['sessions']}"
            f" loads={totals['loads']} errors={totals['errors']}"
            f" dropped={totals['dropped_sessions']}"
            f" rejected={totals.get('rejected_feeds')}"
            f" timeouts={totals.get('timeouts')}"
            f" backends: {backends}"
        ),
    ]
    server_obs = payload.get("server_obs")
    if server_obs:
        wait = server_obs["queue_wait_ms"]
        occupancy = server_obs.get("batch_occupancy_mean")
        lines.append(
            f"server: queue-wait p50={_ms(wait.get('p50'))}ms"
            f" p95={_ms(wait.get('p95'))}ms p99={_ms(wait.get('p99'))}ms"
            f" (n={wait['count']})"
            + (
                f" batch-occupancy={occupancy:.1f}"
                if occupancy is not None else ""
            )
            + (
                f" spans={server_obs['spans_exported']}"
                if server_obs.get("spans_exported") is not None else ""
            )
        )
    return "\n".join(lines)
