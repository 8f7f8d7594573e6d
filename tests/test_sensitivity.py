"""Tests for the parameter-sensitivity sweep driver."""

import pytest

from repro.eval.sensitivity import SWEEPABLE, SweepResult, sweep


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))


class TestSweep:
    def test_cap_threshold_sweep(self):
        result = sweep(
            "cap.confidence_threshold", [1, 3],
            traces=["INT_xli"], instructions=8000,
        )
        assert result.values == [1, 3]
        # A lower threshold speculates strictly more often.
        assert (
            result.metrics[1].prediction_rate
            >= result.metrics[3].prediction_rate
        )

    def test_hybrid_lb_sweep(self):
        result = sweep(
            "hybrid.lb_entries", [64, 4096],
            traces=["NT_cdw"], instructions=8000,
        )
        assert (
            result.metrics[4096].prediction_rate
            >= result.metrics[64].prediction_rate - 0.01
        )

    def test_best(self):
        result = SweepResult(knob="k", values=[1, 2])
        from repro.eval.metrics import PredictorMetrics

        result.metrics[1] = PredictorMetrics(
            loads=10, speculative=5, correct_speculative=5,
        )
        result.metrics[2] = PredictorMetrics(
            loads=10, speculative=9, correct_speculative=9,
        )
        assert result.best() == 2

    def test_render(self):
        result = sweep(
            "stride.confidence_threshold", [2],
            traces=["MM_aud"], instructions=5000,
        )
        text = result.render()
        assert "Sensitivity sweep" in text
        assert "2" in text

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="knob must look like"):
            sweep("history_length", [1], traces=["INT_xli"], instructions=2000)
        with pytest.raises(ValueError, match="unknown predictor kind"):
            sweep("oracle.depth", [1], traces=["INT_xli"], instructions=2000)
        with pytest.raises(ValueError, match="has no field"):
            sweep("cap.nonsense", [1], traces=["INT_xli"], instructions=2000)

    def test_documented_knobs_are_valid(self):
        """Every advertised knob must actually sweep."""
        for knob in SWEEPABLE:
            kind, field_name = knob.split(".", 1)
            from repro.eval.sensitivity import _KINDS

            assert hasattr(_KINDS[kind](), field_name), knob
