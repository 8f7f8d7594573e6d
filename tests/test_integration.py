"""End-to-end integration tests reproducing the paper's qualitative claims
on freshly generated traces (workload -> CPU -> trace -> predictor)."""

import pytest

from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import load_outcomes, run_predictor
from repro.pipeline import PipelinedPredictor
from repro.predictors import (
    CAPConfig,
    CAPPredictor,
    HybridPredictor,
    LastAddressPredictor,
    StrideConfig,
    StridePredictor,
)
from repro.timing import simulate, speedup
from repro.workloads import (
    ArraySumWorkload,
    CallPatternWorkload,
    LinkedListWorkload,
    ListEvalWorkload,
    trace_workload,
)


@pytest.fixture(scope="module")
def rds_trace():
    return trace_workload(
        ListEvalWorkload(seed=11), max_instructions=60_000
    )


@pytest.fixture(scope="module")
def array_trace():
    return trace_workload(
        ArraySumWorkload(seed=11, elements=2048), max_instructions=60_000
    )


class TestSection2Claims:
    def test_rds_loads_have_recurring_nonstride_patterns(self, rds_trace):
        """The xlisp-style loads are stride-hopeless but context-learnable."""
        stream = rds_trace.predictor_stream()
        stride = run_predictor(StridePredictor(), stream)
        cap = run_predictor(CAPPredictor(), stream)
        assert cap.prediction_rate > stride.prediction_rate + 0.25

    def test_control_correlated_loads(self):
        trace = trace_workload(CallPatternWorkload(seed=11),
                               max_instructions=50_000)
        stream = trace.predictor_stream()
        cap = run_predictor(CAPPredictor(), stream)
        assert cap.prediction_rate > 0.5


class TestSection3Claims:
    def test_hybrid_dominates_components(self, rds_trace, array_trace):
        """Hybrid >= max(stride, CAP) on each pattern family."""
        for trace in (rds_trace, array_trace):
            stream = trace.predictor_stream()
            stride = run_predictor(StridePredictor(), stream)
            cap = run_predictor(CAPPredictor(), stream)
            hybrid = run_predictor(HybridPredictor(), stream)
            assert hybrid.prediction_rate >= max(
                stride.prediction_rate, cap.prediction_rate) - 0.02

    def test_global_correlation_helps_in_aggregate(self):
        """Figure 9's headline: base-address links beat real-address links
        on aggregate.  (On a tiny solo-learnable trace the real mode can be
        perfect, so the win only shows across a workload mix — exactly how
        the paper reports it.)"""
        from repro.workloads import DesktopWorkload

        base_total = real_total = None
        for workload in (
            LinkedListWorkload("l2", seed=12, length=24),
            LinkedListWorkload("l3", seed=15, length=32),
            DesktopWorkload(seed=14, handlers=48, loads_per_handler=10,
                            queue_len=60),
        ):
            stream = trace_workload(
                workload, max_instructions=40_000
            ).predictor_stream()
            base = run_predictor(
                CAPPredictor(CAPConfig(correlation="base")), stream
            )
            real = run_predictor(
                CAPPredictor(CAPConfig(correlation="real")), stream
            )
            if base_total is None:
                base_total, real_total = base, real
            else:
                base_total.add(base)
                real_total.add(real)
        assert base_total.correct_rate >= real_total.correct_rate - 0.01

    def test_tags_cut_mispredictions(self, rds_trace):
        """Figure 10's headline: LT tags trade few predictions for far
        fewer mispredictions."""
        from repro.predictors.confidence import CFI_OFF
        from repro.predictors.link_table import LinkTableConfig

        stream = rds_trace.predictor_stream()
        untagged = run_predictor(
            CAPPredictor(CAPConfig(cfi_mode=CFI_OFF,
                                   lt=LinkTableConfig(tag_bits=0))),
            stream,
        )
        tagged = run_predictor(
            CAPPredictor(CAPConfig(cfi_mode=CFI_OFF,
                                   lt=LinkTableConfig(tag_bits=8))),
            stream,
        )
        assert tagged.misprediction_rate <= untagged.misprediction_rate


class TestSection4Claims:
    def test_last_address_handles_constants_only(self, array_trace):
        stream = array_trace.predictor_stream()
        last = run_predictor(LastAddressPredictor(), stream)
        stride = run_predictor(StridePredictor(StrideConfig.basic()), stream)
        assert stride.prediction_rate > last.prediction_rate

    def test_accuracy_stays_high(self, rds_trace, array_trace):
        """The enhanced predictors keep accuracy near the paper's ~99%."""
        for trace in (rds_trace, array_trace):
            metrics = run_predictor(HybridPredictor(),
                                    trace.predictor_stream())
            assert metrics.accuracy > 0.95


class TestSection5Claims:
    def test_gap_degrades_gracefully(self, rds_trace):
        stream = rds_trace.predictor_stream()
        imm = run_predictor(PipelinedPredictor(HybridPredictor(), 0), stream)
        gap8 = run_predictor(PipelinedPredictor(HybridPredictor(), 8), stream)
        assert gap8.prediction_rate <= imm.prediction_rate + 0.01
        assert gap8.prediction_rate > 0.3 * imm.prediction_rate

    def test_pipelined_predictor_still_speeds_up(self, rds_trace):
        base = simulate(rds_trace)
        pred = simulate(rds_trace, load_outcomes(
            PipelinedPredictor(HybridPredictor(), 8),
            rds_trace.predictor_columns(), PredictorMetrics(),
        ))
        assert speedup(base, pred) > 1.02


class TestRDSSpeedupClaim:
    def test_pointer_chase_gains_more_than_arrays(self):
        """Section 2: address prediction on RDS is the parallelism enabler,
        so its speedup beats the stride case."""
        list_trace = trace_workload(
            LinkedListWorkload(seed=11, via_global_ptr=False, length=24),
            max_instructions=40_000,
        )
        arr_trace = trace_workload(
            ArraySumWorkload(seed=11, elements=2048),
            max_instructions=40_000,
        )
        def hybrid_speedup(trace):
            outcomes = load_outcomes(
                HybridPredictor(), trace.predictor_columns(),
                PredictorMetrics(),
            )
            return speedup(simulate(trace), simulate(trace, outcomes))

        list_speedup = hybrid_speedup(list_trace)
        arr_speedup = hybrid_speedup(arr_trace)
        assert list_speedup > arr_speedup
