"""Smoke tests for the per-figure experiment drivers.

These run on two tiny traces so the whole module stays fast; the real
numbers come from the benchmark harness.
"""

import pytest

from repro.eval import experiments as E
from repro.obs.metrics import global_registry

TRACES = ["INT_xli", "MM_aud"]
INSTR = 8000


@pytest.fixture(scope="module", autouse=True)
def _isolated_cache(tmp_path_factory):
    import os

    old = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = old


class TestFig5:
    def test_runs_and_renders(self):
        result = E.fig5(traces=TRACES, instructions=INSTR)
        assert set(result.variants) == {"stride", "cap", "hybrid"}
        text = result.render()
        assert "Average" in text and "hybrid" in text

    def test_rates_in_range(self):
        result = E.fig5(traces=TRACES, instructions=INSTR)
        for variant in result.variants:
            avg = result.average(variant)
            assert 0.0 <= avg.prediction_rate <= 1.0
            assert avg.loads > 0


class TestFig6:
    def test_geometry_labels(self):
        result = E.fig6(traces=TRACES, instructions=INSTR,
                        geometries=[(512, 1), (1024, 2)])
        assert result.variants == ["0K,1way", "1K,2way"]
        assert result.render()


class TestLTSweep:
    def test_sizes(self):
        result = E.lt_sweep(traces=TRACES, instructions=INSTR,
                            sizes=[256, 1024])
        assert result.variants == ["LT 0K", "LT 1K"]


class TestFig7:
    def test_speedups_positive(self):
        result = E.fig7(traces=TRACES, instructions=INSTR)
        for trace, per_variant in result.per_trace.items():
            for variant, value in per_variant.items():
                assert value > 0.5
        averages = result.suite_average("hybrid")
        assert "Average" in averages
        assert result.render()


class TestFig8:
    def test_selector_distribution_sums_to_one(self):
        result = E.fig8(traces=TRACES, instructions=INSTR)
        for suite, dist in result.distributions.items():
            if dist:
                assert sum(dist.values()) == pytest.approx(1.0)
        assert result.render()


class TestBackendParity:
    """The grids render byte-identically on either backend.

    fig8 reads each hybrid's selector statistics after its run
    (``capture_selector``): the post-run predictor read the engine's grids
    depend on.  One worker, so the kernel dispatch tally of the numpy
    pass lands in this process's registry."""

    @pytest.mark.parametrize("figure, variants", [("fig5", 3), ("fig8", 1)])
    def test_tables_match_across_backends(self, figure, variants,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        rendered = {}
        dispatched = {}
        for backend in ("python", "numpy"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            before = global_registry().snapshot()["counters"]
            result = getattr(E, figure)(traces=TRACES, instructions=INSTR)
            rendered[backend] = result.render()
            after = global_registry().snapshot()["counters"]
            dispatched[backend] = sum(
                count - before.get(name, 0) for name, count in after.items()
                if name.startswith("kernels.") and name.endswith(".dispatched")
            )
        assert dispatched == {"python": 0, "numpy": variants * len(TRACES)}
        assert rendered["python"].encode() == rendered["numpy"].encode()


class TestFig9:
    def test_two_series(self):
        result = E.fig9(traces=["INT_xli"], instructions=INSTR,
                        lengths=[1, 2, 4])
        assert set(result.series) == {
            "global correlation", "no global correlation",
        }
        assert all(len(v) == 3 for v in result.series.values())
        assert result.best_length("global correlation") in (1, 2, 4)
        assert result.render()


class TestFig10:
    def test_configs_present(self):
        result = E.fig10(traces=["INT_xli"], instructions=INSTR)
        assert "no tag" in result.configs
        assert "8-bit tag + path" in result.configs
        for cfg in result.configs:
            assert 0.0 <= result.misprediction_rate[cfg] <= 1.0
        assert result.render()


class TestFig11:
    def test_gap_series(self):
        result = E.fig11(traces=TRACES, instructions=INSTR, gaps=[0, 4])
        assert set(result.series) == {"stride", "hybrid"}
        for per_gap in result.series.values():
            assert set(per_gap) == {0, 4}
        assert result.render()


class TestFig12:
    def test_pipelined_speedups(self):
        result = E.fig12(traces=["INT_xli"], instructions=INSTR, gap=4)
        assert any("g4" in v for v in result.variants)
        assert result.render()


class TestBaselinesAndControl:
    def test_baselines(self):
        result = E.baselines(traces=TRACES, instructions=INSTR)
        assert "last" in result.variants

    def test_control_based(self):
        result = E.control_based(traces=["INT_xli"], instructions=INSTR)
        assert set(result.variants) == {"gshare", "call-path", "cap"}


class TestQuickSet:
    def test_sixteen_traces(self):
        names = E.quick_trace_set()
        assert len(names) == 16
        assert len(set(names)) == 16


class TestValueVsAddress:
    def test_rows_and_render(self):
        result = E.value_vs_address(traces=TRACES, instructions=INSTR)
        assert set(result.rows) == {
            "last-value", "stride-value", "hybrid (address)",
        }
        for rate, acc, ceiling in result.rows.values():
            assert 0.0 <= rate <= 1.0
            assert 0.0 <= ceiling <= 1.0
        assert "predictability" in result.render() or "value" in result.render()

    def test_addresses_beat_values(self):
        result = E.value_vs_address(traces=TRACES, instructions=INSTR)
        addr_rate = result.rows["hybrid (address)"][0]
        assert addr_rate >= result.rows["last-value"][0]
