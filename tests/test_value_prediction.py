"""Load-value prediction (the Section 1 comparison).

A value predictor is an address predictor run over a trace's value
stream (:meth:`repro.trace.trace.Trace.value_columns`): the last-value
predictor is the ``last_address`` factory and the stride-value predictor
is ``basic_stride``.
"""

from repro.eval.engine import FACTORIES, Job, execute_job
from repro.eval.runner import run_predictor
from repro.predictors import HybridPredictor
from repro.trace.event import KIND_ALU, KIND_LOAD, KIND_RET, KIND_STORE
from repro.trace.trace import Trace
from repro.workloads import LinkedListWorkload, trace_workload


def value_trace(pairs):
    """A trace of loads returning the given ``(ip, value)`` pairs."""
    trace = Trace("values")
    for ip, value in pairs:
        trace.append(KIND_LOAD, ip, addr=0x9000, value=value)
    return trace


def run_values(factory, pairs, **overrides):
    predictor = FACTORIES[factory](**overrides)
    return run_predictor(predictor, value_trace(pairs).value_columns())


def ceiling(metrics):
    """Correct raw predictions / all loads (confidence-free)."""
    return metrics.correct_predictions / metrics.loads


class TestValueColumns:
    def test_one_load_event_per_load(self):
        trace = Trace("mixed")
        trace.append(KIND_LOAD, 0x100, addr=0x2000, offset=4, value=11)
        trace.append(KIND_STORE, 0x104, addr=0x2000, value=12)
        trace.append(KIND_ALU, 0x108)
        trace.append(KIND_RET, 0x10C, addr=0x3000, value=0x400)
        stream = trace.value_columns()
        assert stream.lists() == (
            [1, 1], [0x100, 0x10C], [11, 0x400], [0, 0],
        )
        assert stream.loads == 2

    def test_value_job_runs_the_predict_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        result = execute_job(Job(
            trace="INT_xli", factory="last_address", kind="value",
            instructions=8000, variant="last-value",
        ))
        assert result.metrics.name == "last-value"
        assert result.metrics.loads > 0
        assert result.backend in ("python", "numpy")


class TestLastValuePredictor:
    def test_learns_constant_value(self):
        metrics = run_values("last_address", [(0x100, 7)] * 10)
        assert metrics.correct_predictions == 9
        assert metrics.speculative > 0
        assert metrics.accuracy == 1.0

    def test_changing_values_never_confident(self):
        metrics = run_values("last_address", [(0x100, i) for i in range(50)])
        assert metrics.speculative == 0

    def test_per_ip_isolation(self):
        metrics = run_values("last_address", [(0x100, 1), (0x200, 2)] * 10)
        assert ceiling(metrics) > 0.8


class TestStrideValuePredictor:
    def test_learns_counter_values(self):
        """A load returning 0,1,2,3,... (a loop counter in memory)."""
        metrics = run_values("basic_stride", [(0x100, i) for i in range(50)])
        assert ceiling(metrics) > 0.9
        assert metrics.accuracy > 0.95

    def test_constant_is_stride_zero(self):
        metrics = run_values("basic_stride", [(0x100, 42)] * 20)
        assert ceiling(metrics) > 0.9

    def test_wraps_32bit(self):
        values = [
            (0x100, (0xFFFF_FFF0 + 8 * i) & 0xFFFFFFFF) for i in range(20)
        ]
        metrics = run_values("basic_stride", values)
        assert ceiling(metrics) > 0.8


class TestPaperClaim:
    def test_addresses_more_predictable_than_values(self):
        """Section 1: load-value prediction has 'lower predictability'.

        On a pointer chase the *addresses* cycle predictably while the
        *values* (pointers one step ahead plus data) are just as cyclic —
        but on general workloads values include computation results.  Use
        the interpreter-style workload: address prediction must beat value
        prediction clearly.
        """
        trace = trace_workload(
            LinkedListWorkload(seed=5), max_instructions=30_000,
        )
        addr = run_predictor(HybridPredictor(), trace.predictor_columns())
        value = run_predictor(
            FACTORIES["basic_stride"](), trace.value_columns(),
        )
        assert addr.prediction_rate > value.prediction_rate

    def test_config_applied(self):
        metrics = run_values(
            "last_address", [(0x100, 7)] * 6, confidence_threshold=4,
        )
        assert metrics.speculative == 1  # needs 4 correct first
