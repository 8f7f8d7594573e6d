"""Observed-vs-requested backend recording.

Requesting ``REPRO_BACKEND=numpy`` does not guarantee kernel execution:
configurations outside the kernels' modelled envelope raise
``BatchFallback`` on every dispatch and the run silently executes the
scalar loop.  These tests pin that the engine — and the bench recorder
built on top of it — record what actually ran, not what was asked for.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.eval.engine import Job, execute_job

TRACE = "INT_xli"
INSTR = 8000

#: supports_batch holds for the hybrid, but this policy couples the Link
#: Table timeline to arbitration, so plan_hybrid raises BatchFallback on
#: every dispatch (see repro.kernels.hybrid).
FALLBACK_OVERRIDES = {"lt_update_policy": "unless_stride_selected"}


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "1")


def _bench_module():
    path = (
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "record_bench.py"
    )
    spec = importlib.util.spec_from_file_location("record_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEngineObservedBackend:
    def test_kernel_job_records_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        result = execute_job(Job(
            trace=TRACE, factory="hybrid", instructions=INSTR,
            variant="hybrid",
        ))
        assert result.backend == "numpy"
        assert result.metrics.backend == "numpy"

    def test_all_fallback_job_records_python(self, monkeypatch):
        # The regression: numpy was *requested*, every dispatch fell
        # back, and the result must say "python".
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        result = execute_job(Job(
            trace=TRACE, factory="hybrid", instructions=INSTR,
            overrides=dict(FALLBACK_OVERRIDES), variant="hybrid-fb",
        ))
        assert result.backend == "python"
        assert result.metrics.backend == "python"

    def test_fallback_matches_scalar_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        via_fallback = execute_job(Job(
            trace=TRACE, factory="hybrid", instructions=INSTR,
            overrides=dict(FALLBACK_OVERRIDES), variant="v",
        ))
        monkeypatch.setenv("REPRO_BACKEND", "python")
        scalar = execute_job(Job(
            trace=TRACE, factory="hybrid", instructions=INSTR,
            overrides=dict(FALLBACK_OVERRIDES), variant="v",
        ))
        fb, sc = via_fallback.metrics, scalar.metrics
        assert (fb.loads, fb.predictions, fb.speculative,
                fb.correct_speculative, fb.correct_predictions) == \
               (sc.loads, sc.predictions, sc.speculative,
                sc.correct_speculative, sc.correct_predictions)


class TestRecordBenchProbe:
    def test_python_request_probes_python(self, monkeypatch):
        bench = _bench_module()
        assert bench._observed_backend("python") == "python"

    def test_numpy_request_probes_numpy(self, monkeypatch):
        bench = _bench_module()
        assert bench._observed_backend("numpy") == "numpy"

    def test_all_fallback_roster_probes_python(self, monkeypatch):
        # If every measured variant falls back, the entry must record
        # "python" even though numpy was requested.
        import repro.obs.stats as stats

        bench = _bench_module()
        monkeypatch.setattr(stats, "DEFAULT_VARIANTS", {
            "hybrid": ("hybrid", dict(FALLBACK_OVERRIDES), None),
        })
        assert bench._observed_backend("numpy") == "python"

    def test_probe_restores_backend_env(self, monkeypatch):
        bench = _bench_module()
        monkeypatch.setenv("REPRO_BACKEND", "python")
        bench._observed_backend("numpy")
        import os
        assert os.environ["REPRO_BACKEND"] == "python"
