"""Tests for evaluation metrics, aggregation and the runner."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.stats import Distribution, RateCounter, geometric_mean, weighted_mean
from repro.eval.metrics import (
    AttributionCounters,
    PredictorMetrics,
    SuiteMetrics,
    aggregate_by_suite,
)
from repro.eval.runner import run_on_columns, run_on_stream, run_predictor
from repro.predictors import LastAddressPredictor
from repro.predictors.base import AddressPredictor, Prediction
from repro.trace.trace import PredictorStream


class TestPredictorMetrics:
    def test_rates(self):
        m = PredictorMetrics()
        m.record(made=True, speculative=True, correct=True)
        m.record(made=True, speculative=True, correct=False)
        m.record(made=True, speculative=False, correct=True)
        m.record(made=False, speculative=False, correct=False)
        assert m.loads == 4
        assert m.prediction_rate == pytest.approx(0.5)
        assert m.accuracy == pytest.approx(0.5)
        assert m.misprediction_rate == pytest.approx(0.5)
        assert m.correct_rate == pytest.approx(0.25)
        assert m.coverage == pytest.approx(0.75)
        assert m.mispredictions == 1

    def test_empty_metrics_safe(self):
        m = PredictorMetrics()
        assert m.prediction_rate == 0.0
        assert m.accuracy == 0.0
        assert m.correct_rate == 0.0

    def test_add_combines_counters(self):
        a = PredictorMetrics(loads=10, speculative=5, correct_speculative=4)
        b = PredictorMetrics(loads=10, speculative=1, correct_speculative=1)
        a.add(b)
        assert a.loads == 20
        assert a.prediction_rate == pytest.approx(0.3)

    def test_iadd_merges_in_place(self):
        a = PredictorMetrics(name="p", loads=10, speculative=5,
                             correct_speculative=4)
        b = PredictorMetrics(loads=2, speculative=2, correct_speculative=1)
        merged = a
        merged += b
        assert merged is a
        assert a.loads == 12
        assert a.correct_speculative == 5
        assert a.name == "p"  # labels never merge

    def test_zero_loads_rates_are_zero(self):
        m = PredictorMetrics(speculative=0, loads=0)
        assert m.prediction_rate == 0.0
        assert m.accuracy == 0.0
        assert m.misprediction_rate == 0.0
        assert m.correct_rate == 0.0
        assert m.coverage == 0.0

    def test_add_accepts_plain_metrics_into_attribution(self):
        rich = AttributionCounters(loads=5, lb_misses=3)
        rich.add(PredictorMetrics(loads=2))
        assert rich.loads == 7
        assert rich.lb_misses == 3  # missing counters contribute zero

    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                    max_size=200))
    def test_invariants(self, events):
        m = PredictorMetrics()
        for made, spec, correct in events:
            m.record(made=made or spec, speculative=spec, correct=correct)
        assert 0 <= m.correct_speculative <= m.speculative <= m.loads
        assert 0.0 <= m.prediction_rate <= 1.0
        if m.speculative:
            assert 0.0 <= m.accuracy <= 1.0


class TestAggregation:
    def test_groups_by_suite(self):
        runs = [
            PredictorMetrics(name="p", trace="a", suite="INT",
                             loads=100, speculative=50, correct_speculative=49),
            PredictorMetrics(name="p", trace="b", suite="INT",
                             loads=100, speculative=70, correct_speculative=70),
            PredictorMetrics(name="p", trace="c", suite="MM",
                             loads=100, speculative=90, correct_speculative=90),
        ]
        suites = aggregate_by_suite(runs)
        assert suites["INT"].combined.speculative == 120
        assert suites["MM"].combined.loads == 100
        assert suites["Average"].combined.loads == 300

    def test_average_is_load_weighted(self):
        runs = [
            PredictorMetrics(trace="a", suite="X", loads=300, speculative=300,
                             correct_speculative=300),
            PredictorMetrics(trace="b", suite="Y", loads=100, speculative=0),
        ]
        avg = aggregate_by_suite(runs)["Average"].combined
        assert avg.prediction_rate == pytest.approx(0.75)

    def test_combined_upgrades_to_attribution_counters(self):
        suite = SuiteMetrics(suite="INT")
        suite.add(PredictorMetrics(trace="a", suite="INT", loads=10))
        suite.add(AttributionCounters(trace="b", suite="INT", loads=5,
                                      lb_misses=2))
        assert isinstance(suite.combined, AttributionCounters)
        assert suite.combined.loads == 15
        assert suite.combined.lb_misses == 2

    def test_suite_iadd_merges_traces(self):
        left = SuiteMetrics(suite="INT")
        left.add(PredictorMetrics(trace="a", suite="INT", loads=10))
        right = SuiteMetrics(suite="INT")
        right.add(PredictorMetrics(trace="b", suite="INT", loads=7))
        left += right
        assert set(left.traces) == {"a", "b"}
        assert left.combined.loads == 17


class TestStatsHelpers:
    def test_rate_counter(self):
        r = RateCounter()
        r.record(True)
        r.record(False)
        assert r.rate == pytest.approx(0.5)
        r2 = RateCounter()
        r2.add(r)
        assert r2.total == 2

    def test_distribution(self):
        d = Distribution()
        d.record("a", 3)
        d.record("b")
        assert d.fraction("a") == pytest.approx(0.75)
        assert d.fractions()["b"] == pytest.approx(0.25)

    def test_weighted_mean(self):
        assert weighted_mean([(1.0, 1), (3.0, 1)]) == pytest.approx(2.0)
        assert weighted_mean([(1.0, 3), (5.0, 1)]) == pytest.approx(2.0)
        assert weighted_mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class _ScriptedPredictor(AddressPredictor):
    """Predicts a fixed address for every load; counts notifications."""

    def __init__(self, address):
        super().__init__()
        self.address = address
        self.branches = []
        self.calls = []
        self.updates = 0

    def predict(self, ip, offset):
        return Prediction(address=self.address, speculative=True)

    def update(self, ip, offset, actual, prediction):
        self.updates += 1

    def on_branch(self, ip, taken):
        super().on_branch(ip, taken)
        self.branches.append((ip, taken))

    def on_call(self, ip):
        self.calls.append(ip)


class TestRunner:
    def test_counts_loads_and_correctness(self):
        stream = [
            (1, 0x100, 0x2000, 0),
            (1, 0x100, 0x3000, 0),
            (0, 0x200, 1, 0),
            (1, 0x100, 0x2000, 0),
        ]
        p = _ScriptedPredictor(0x2000)
        metrics = run_predictor(p, stream)
        assert metrics.loads == 3
        assert metrics.speculative == 3
        assert metrics.correct_speculative == 2
        assert p.updates == 3
        assert p.branches == [(0x200, True)]

    def test_warmup_excluded_from_metrics(self):
        stream = [(1, 0x100, 0x2000, 0)] * 10
        p = _ScriptedPredictor(0x2000)
        metrics = PredictorMetrics()
        run_on_stream(p, stream, metrics, warmup_loads=6)
        assert metrics.loads == 4
        assert p.updates == 10  # training still happens during warmup

    def test_calls_and_returns_forwarded(self):
        stream = [(2, 0x300, 0, 0), (3, 0x304, 0, 0)]
        p = _ScriptedPredictor(0)
        run_predictor(p, stream)
        assert p.calls == [0x300]

    def test_trace_object_accepted(self):
        from repro.trace.trace import Trace

        t = Trace("x", meta={"suite": "INT"})
        t.append(1, 0x100, addr=0x2000, offset=4)
        metrics = run_predictor(LastAddressPredictor(), t)
        assert metrics.trace == "x"
        assert metrics.suite == "INT"
        assert metrics.loads == 1

    def test_instrumented_run_returns_attribution_counters(self):
        stream = [(1, 0x100, 0x2000 + 8 * i, 0) for i in range(20)]
        metrics = run_predictor(
            LastAddressPredictor(), stream, instrument=True
        )
        assert isinstance(metrics, AttributionCounters)
        assert metrics.loads == 20


class TestObserverParity:
    """The observer hook must fire identically through both entry points."""

    #: mixed stream: loads, a branch, a call and a return interleaved
    EVENTS = [
        (1, 0x100, 0x2000, 4),
        (0, 0x200, 1, 0),
        (1, 0x104, 0x2008, 4),
        (2, 0x300, 0, 0),
        (1, 0x100, 0x2010, 4),
        (0, 0x200, 0, 0),
        (3, 0x304, 0, 0),
        (1, 0x104, 0x2018, 4),
    ]

    def _drive(self, runner, stream):
        calls = []
        predictor = LastAddressPredictor()
        runner(
            predictor, stream, PredictorMetrics(),
            observer=lambda ip, b, a, prediction: calls.append(
                (ip, b, a, prediction.made, prediction.address)
            ),
        )
        return calls

    def test_identical_call_sequences(self):
        columns = PredictorStream(
            tag=[e[0] for e in self.EVENTS],
            ip=[e[1] for e in self.EVENTS],
            a=[e[2] for e in self.EVENTS],
            b=[e[3] for e in self.EVENTS],
            loads=sum(1 for e in self.EVENTS if e[0] == 1),
        )
        via_stream = self._drive(run_on_stream, list(self.EVENTS))
        via_columns = self._drive(run_on_columns, columns)
        assert via_stream == via_columns
        assert len(via_stream) == 4  # one call per dynamic load only

    def test_observer_sees_prediction_before_update(self):
        stream = [(1, 0x100, 0x2000, 0), (1, 0x100, 0x2000, 0)]
        seen = []
        run_on_stream(
            LastAddressPredictor(), stream, PredictorMetrics(),
            observer=lambda ip, b, a, p: seen.append(p.made),
        )
        # First load: table is still empty at observation time.
        assert seen == [False, True]


class TestRunnerLayout:
    """The runner owns the evaluation loop; offline code needs no server."""

    def test_offline_packages_load_no_serving_module(self):
        code = (
            "import sys\n"
            "import repro.eval, repro.eval.engine, repro.verify\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.serve')))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_points_do_not_warn(self):
        stream = [(1, 0x100, 0x2000, 0), (0, 0x200, 1, 0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_on_stream(LastAddressPredictor(), stream, PredictorMetrics())
            run_on_columns(
                LastAddressPredictor(),
                PredictorStream(*map(list, zip(*stream))),
                PredictorMetrics(),
            )
            run_predictor(LastAddressPredictor(), stream)
        assert not [w for w in caught if w.category is DeprecationWarning]
