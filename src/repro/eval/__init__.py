"""Evaluation harness: runner, metrics, per-figure experiment drivers."""

from . import experiments
from .charts import bar_chart, grouped_bar_chart, series_chart
from .engine import Job, JobResult, resolve_jobs, run_jobs
from .metrics import PredictorMetrics, SuiteMetrics, aggregate_by_suite
from .report import format_percent, format_speedup, format_table
from .runner import run_on_columns, run_on_stream, run_predictor
from .sensitivity import SweepResult, sweep

__all__ = [
    "experiments",
    "Job",
    "JobResult",
    "resolve_jobs",
    "run_jobs",
    "run_on_columns",
    "bar_chart",
    "grouped_bar_chart",
    "series_chart",
    "SweepResult",
    "sweep",
    "PredictorMetrics",
    "SuiteMetrics",
    "aggregate_by_suite",
    "format_percent",
    "format_speedup",
    "format_table",
    "run_on_stream",
    "run_predictor",
]
