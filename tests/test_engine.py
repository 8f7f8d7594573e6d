"""Engine correctness: serial/parallel equivalence, job model, cache locking."""

import multiprocessing
import os
import pickle
from pathlib import Path

import pytest

from repro.eval import experiments as E
from repro.eval import sensitivity
from repro.eval.engine import (
    FACTORIES,
    KIND_VERIFY,
    Job,
    build_predictor,
    execute_job,
    resolve_jobs,
    run_jobs,
)
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_scalar
from repro.obs import stats as obs_stats
from repro.pipeline.delayed import PipelinedPredictor
from repro.workloads import suites

TRACES = ["INT_xli", "MM_aud", "GAM_duk"]
INSTR = 8000

#: Every driver that builds engine Jobs, with its extra arguments: the
#: experiment drivers minus the roster helper, plus the attribution
#: breakdown and the sensitivity sweep.
JOB_DRIVERS = [
    (E, name, {}) for name in E.__all__ if name != "quick_trace_set"
] + [
    (obs_stats, "collect_breakdown", {}),
    (sensitivity, "sweep",
     {"knob": "cap.history_length", "values": [1, 2]}),
]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))


@pytest.fixture()
def serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")


def _metric_tuple(m):
    return (
        m.name, m.trace, m.suite, m.loads, m.predictions, m.speculative,
        m.correct_speculative, m.correct_predictions,
    )


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_cpu_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestJobModel:
    def test_unknown_factory_raises(self):
        with pytest.raises(KeyError, match="unknown predictor factory"):
            build_predictor(Job(trace="INT_xli", factory="nope"))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            execute_job(Job(trace="INT_xli", factory="hybrid", kind="bogus"))

    def test_gap_wraps_in_pipelined(self):
        predictor = build_predictor(
            Job(trace="INT_xli", factory="stride", gap=4)
        )
        assert isinstance(predictor, PipelinedPredictor)
        assert predictor.gap == 4

    @pytest.mark.parametrize("factory", ["stride", "hybrid"])
    def test_gap_zero_builds_the_bare_predictor(self, serial, factory):
        """Gap 0 is the immediate model: the wrapper would only forward
        (updates apply at once, no flush), so the engine leaves it off and
        fig11's gap-0 cells can reach the kernels."""
        for gap in (0, None):
            predictor = build_predictor(
                Job(trace="t", factory=factory, gap=gap)
            )
            assert not isinstance(predictor, PipelinedPredictor)
        stream = suites.get_predictor_stream("INT_xli", INSTR)
        bare = run_scalar(FACTORIES[factory](), stream, PredictorMetrics())
        wrapped = run_scalar(
            PipelinedPredictor(FACTORIES[factory](), 0), stream,
            PredictorMetrics(),
        )
        assert _metric_tuple(bare) == _metric_tuple(wrapped)
        assert bare.loads > 0

    def test_every_factory_builds(self):
        for name in FACTORIES:
            assert build_predictor(Job(trace="t", factory=name)) is not None

    def test_predict_job_executes(self, serial):
        result = execute_job(Job(
            trace="INT_xli", factory="hybrid", instructions=INSTR,
            variant="hybrid",
        ))
        assert result.variant == "hybrid"
        assert result.suite == "INT"
        assert result.metrics.loads > 0

    def test_timing_baseline_job(self, serial):
        result = execute_job(Job(
            trace="INT_xli", instructions=INSTR, kind="timing",
            variant="base",
        ))
        assert result.cycles > 0
        assert result.metrics is None

    def test_capture_selector(self, serial):
        result = execute_job(Job(
            trace="INT_xli", factory="hybrid", instructions=INSTR,
            capture_selector=True,
        ))
        assert result.selector_stats is not None
        assert result.selector_stats.speculative >= 0

    def test_warmup_fraction_reduces_counted_loads(self, serial):
        full = execute_job(Job(
            trace="INT_xli", factory="stride", instructions=INSTR,
        ))
        warm = execute_job(Job(
            trace="INT_xli", factory="stride", instructions=INSTR,
            warmup_fraction=0.5,
        ))
        assert 0 < warm.metrics.loads < full.metrics.loads

    @pytest.mark.parametrize(
        "module, driver, kwargs", JOB_DRIVERS,
        ids=[name for _, name, _ in JOB_DRIVERS],
    )
    def test_driver_jobs_survive_pickle(self, serial, monkeypatch,
                                        module, driver, kwargs):
        """A Job is a spec, not a live object: every Job a driver builds
        must cross the process-pool pipe unchanged.  A lambda, closure
        or local class in a payload works serially and fails the first
        time the run fans out to workers."""
        real_run_jobs = module.run_jobs
        checked = []

        def pickling_run_jobs(jobs, *args, **kwargs):
            jobs = list(jobs)
            for job in jobs:
                assert pickle.loads(pickle.dumps(job)) == job
            checked.extend(jobs)
            return real_run_jobs(jobs, *args, **kwargs)

        monkeypatch.setattr(module, "run_jobs", pickling_run_jobs)
        getattr(module, driver)(
            traces=["INT_xli"], instructions=3000, **kwargs
        )
        assert checked


class TestSerialParallelIdentity:
    """REPRO_JOBS=1 and multi-process runs must be bit-identical."""

    @pytest.mark.parametrize("variant,overrides", [
        ("stride", {}),
        ("cap", {}),
        ("hybrid", {"lb_entries": 1024}),
    ])
    def test_job_grid_identical(self, monkeypatch, variant, overrides):
        jobs = [
            Job(trace=name, factory=variant, overrides=overrides,
                instructions=INSTR, variant=variant)
            for name in TRACES
        ]
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_results = run_jobs(jobs)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_results = run_jobs(jobs)
        assert [_metric_tuple(r.metrics) for r in serial_results] == \
               [_metric_tuple(r.metrics) for r in parallel_results]

    def test_fig5_grid_identical_and_ordered(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_result = E.fig5(traces=TRACES, instructions=INSTR)
        monkeypatch.setenv("REPRO_JOBS", "3")
        parallel_result = E.fig5(traces=TRACES, instructions=INSTR)
        assert serial_result.variants == parallel_result.variants
        for variant in serial_result.variants:
            assert [_metric_tuple(m) for m in serial_result.runs[variant]] == \
                   [_metric_tuple(m) for m in parallel_result.runs[variant]]
            # Per-variant runs keep roster order regardless of completion.
            assert [m.trace for m in parallel_result.runs[variant]] == TRACES

    def test_fig5_result_dicts_byte_identical(self, monkeypatch):
        """Stronger than tuple equality: the *entire* serialized result —
        every counter of every per-trace metric plus the per-suite
        aggregates — must not change with the worker count."""
        import json

        def snapshot(result):
            return json.dumps(
                {
                    "variants": result.variants,
                    "runs": {
                        variant: [vars(m) for m in metrics_list]
                        for variant, metrics_list in result.runs.items()
                    },
                    "suites": {
                        variant: {
                            suite: vars(sm.combined)
                            for suite, sm in per_suite.items()
                        }
                        for variant, per_suite in result.suites.items()
                    },
                },
                sort_keys=True,
            )

        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = snapshot(E.fig5(traces=TRACES, instructions=INSTR))
        monkeypatch.setenv("REPRO_JOBS", "3")
        parallel = snapshot(E.fig5(traces=TRACES, instructions=INSTR))
        assert serial == parallel

    def test_fig12_timing_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_result = E.fig12(traces=TRACES[:2], instructions=INSTR, gap=4)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel_result = E.fig12(traces=TRACES[:2], instructions=INSTR, gap=4)
        assert serial_result.per_trace == parallel_result.per_trace
        assert serial_result.base_cycles == parallel_result.base_cycles

    def test_explicit_max_workers_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        jobs = [
            Job(trace=name, factory="stride", instructions=INSTR,
                variant="stride")
            for name in TRACES
        ]
        results = run_jobs(jobs, max_workers=2)
        assert [r.trace for r in results] == TRACES


class TestVerifyJobs:
    """kind="verify" jobs run the differential harness through the engine."""

    def test_verify_job_executes_clean(self, serial):
        result = execute_job(Job(
            trace="INT_xli", kind=KIND_VERIFY, variant="cap",
            instructions=INSTR,
        ))
        assert result.variant == "cap"
        assert result.suite == "INT"
        assert result.divergence is None
        assert result.metrics is None

    def test_verify_jobs_parallelise(self, monkeypatch):
        jobs = [
            Job(trace=name, kind=KIND_VERIFY, variant=variant,
                instructions=INSTR)
            for name in TRACES[:2]
            for variant in ("stride", "hybrid")
        ]
        monkeypatch.setenv("REPRO_JOBS", "2")
        results = run_jobs(jobs)
        assert [(r.trace, r.variant) for r in results] == \
               [(j.trace, j.variant) for j in jobs]
        assert all(r.divergence is None for r in results)


def _get_trace_worker(args):
    name, instructions, cache_dir = args
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    trace = suites.get_trace(name, instructions)
    return len(trace), trace.predictor_columns().loads


class TestCacheLocking:
    def test_cold_cache_concurrent_generation(self, tmp_path):
        """Two workers racing on one cold cache file both get the trace."""
        cache_dir = str(tmp_path / "cold")
        args = [("INT_xli", INSTR, cache_dir)] * 2
        with multiprocessing.Pool(2) as pool:
            results = pool.map(_get_trace_worker, args)
        assert results[0] == results[1]
        assert results[0][0] > 0
        cached = list(Path(cache_dir).glob("INT_xli_*.npz"))
        assert len(cached) == 1
        # No torn tmp files left behind.
        assert not list(Path(cache_dir).glob("*.tmp.*"))

    def test_cache_file_loadable_and_equal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "c2"))
        first = suites.get_trace("MM_aud", INSTR)
        second = suites.get_trace("MM_aud", INSTR)  # from cache
        assert first.kind == second.kind
        assert first.addr == second.addr
        cols_a = first.predictor_columns()
        cols_b = second.predictor_columns()
        assert cols_a.lists() == cols_b.lists()

    def test_stream_only_load_matches_full(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "c3"))
        trace = suites.get_trace("GAM_duk", INSTR)
        stream = suites.get_predictor_stream("GAM_duk", INSTR)
        full = trace.predictor_columns()
        assert stream.lists() == full.lists()
        assert stream.loads == full.loads
