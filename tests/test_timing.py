"""Tests for the cache model and the out-of-order timing model."""

import json
from pathlib import Path

import pytest

from repro.eval.engine import Job, run_jobs
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import load_outcomes
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.isa.memory import Memory
from repro.predictors import HybridPredictor, StridePredictor
from repro.timing import (
    CacheConfig,
    CacheHierarchy,
    CacheLevel,
    MachineConfig,
    PrefetchConfig,
    StridePrefetcher,
    TimingResult,
    simulate,
    speedup,
)
from repro.trace.trace import Trace
from repro.workloads import LinkedListWorkload, suites, trace_workload

#: Cycles pinned from the timing model before it stopped driving the
#: predictor itself; ``benchmarks/test_golden_cycles.py`` regenerates them.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "timing_cycles.json").read_text()
)


def outcomes_of(trace, predictor):
    """The per-load outcome column ``predictor`` produces on ``trace``."""
    return load_outcomes(
        predictor, trace.predictor_columns(), PredictorMetrics()
    )


class TestCacheLevel:
    def test_first_access_misses(self):
        c = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        assert not c.access(0x1000)
        assert c.access(0x1000)

    def test_same_line_hits(self):
        c = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        c.access(0x1000)
        assert c.access(0x101C)  # same 32-byte line

    def test_lru_within_set(self):
        c = CacheLevel(CacheConfig(size_bytes=128, line_bytes=32, ways=2))
        # 2 sets; lines mapping to set 0: 0x000, 0x040, 0x080...
        c.access(0x000)
        c.access(0x040)
        c.access(0x000)          # refresh
        c.access(0x080)          # evicts 0x040
        assert c.access(0x000)
        assert not c.access(0x040)

    def test_hit_rate(self):
        c = CacheLevel(CacheConfig())
        c.access(0)
        c.access(0)
        assert c.hit_rate == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_bytes=32, ways=3)


class TestCacheHierarchy:
    def test_latencies(self):
        h = CacheHierarchy(l1_latency=3, l2_latency=12, memory_latency=60)
        assert h.access(0x5000) == 60          # cold: memory
        assert h.access(0x5000) == 3           # now L1
        # Evict from a tiny L1 but not L2: emulate with many lines.
        h2 = CacheHierarchy(
            l1=CacheConfig(size_bytes=128, line_bytes=32, ways=1),
            l1_latency=3, l2_latency=12, memory_latency=60,
        )
        h2.access(0x0)
        for addr in range(0x1000, 0x3000, 32):
            h2.access(addr)
        assert h2.access(0x0) == 12            # L1 victim, L2 hit


class TestStridePrefetcher:
    def _hierarchy(self):
        return CacheHierarchy(l1_latency=3, l2_latency=12, memory_latency=60)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PrefetchConfig(degree=0)

    def test_untrained_load_issues_nothing(self):
        pf = StridePrefetcher()
        pf.observe(0x1000, 0x8000, self._hierarchy())
        assert pf.issued == 0

    def test_confident_stride_prefetches_next_lines(self):
        caches = self._hierarchy()
        pf = StridePrefetcher(PrefetchConfig(confidence_threshold=2))
        addrs = [0x8000 + 256 * i for i in range(8)]
        for addr in addrs:
            pf.observe(0x1000, addr, caches)
        assert pf.issued > 0
        # The next strided line was touched ahead of time: an L1 hit now.
        assert caches.access(addrs[-1] + 256) == 3

    def test_zero_stride_issues_nothing(self):
        caches = self._hierarchy()
        pf = StridePrefetcher()
        for _ in range(10):
            pf.observe(0x1000, 0x8000, caches)
        assert pf.issued == 0

    def test_degree_scales_issue_count(self):
        def issued_with(degree):
            caches = self._hierarchy()
            pf = StridePrefetcher(
                PrefetchConfig(degree=degree, confidence_threshold=2)
            )
            for i in range(12):
                pf.observe(0x1000, 0x8000 + 64 * i, caches)
            return pf.issued

        assert issued_with(4) == 4 * issued_with(1)

    def test_prefetch_uses_learned_stride_not_blip(self):
        """A single irregular access must not redirect the prefetch."""
        caches = self._hierarchy()
        pf = StridePrefetcher(PrefetchConfig(confidence_threshold=2))
        for i in range(8):
            pf.observe(0x1000, 0x8000 + 256 * i, caches)
        before = pf.issued
        # The blip itself arrives while the old stride is still confident:
        # whatever is issued extends from the blip address by the *learned*
        # stride (issue happens before training sees the new delta).
        pf.observe(0x1000, 0x20000, caches)
        if pf.issued > before:
            assert caches.access(0x20000 + 256) == 3

    def test_separate_ips_train_independently(self):
        caches = self._hierarchy()
        pf = StridePrefetcher(PrefetchConfig(confidence_threshold=2))
        for i in range(8):
            pf.observe(0x1000, 0x8000 + 128 * i, caches)
            pf.observe(0x2000, 0x40000 - 128 * i, caches)
        assert caches.access(0x8000 + 128 * 8) == 3     # up-stride IP
        assert caches.access(0x40000 - 128 * 8) == 3    # down-stride IP


def make_dependent_chain_trace(n, latency_kind=1):
    """n loads, each address depending on the previous load's result."""
    t = Trace("chain")
    for i in range(n):
        t.append(latency_kind, 0x1000, addr=0x2000 + 64 * i, offset=0,
                 dst=1, src1=1)
    return t


def make_independent_alu_trace(n):
    t = Trace("alu")
    for i in range(n):
        t.append(0, 0x1000 + 4 * i, dst=(i % 8) + 1)
    return t


class TestTimingModel:
    def test_wide_independent_code_reaches_width(self):
        trace = make_independent_alu_trace(8000)
        result = simulate(trace, config=MachineConfig(width=8, window=128))
        assert result.ipc > 6.0

    def test_dependent_loads_serialise(self):
        trace = make_dependent_chain_trace(500)
        result = simulate(trace)
        # Each load takes at least l1_latency on the critical path.
        assert result.cycles >= 500 * 3 * 0.8

    def test_width_one_bounds_ipc(self):
        trace = make_independent_alu_trace(1000)
        result = simulate(trace, config=MachineConfig(width=1, window=32))
        assert result.ipc <= 1.01

    def test_correct_prediction_speeds_up_pointer_chase(self):
        workload = LinkedListWorkload(seed=3, via_global_ptr=False, length=16)
        trace = trace_workload(workload, max_instructions=30_000)
        base = simulate(trace)
        pred = simulate(trace, outcomes_of(trace, HybridPredictor()))
        assert speedup(base, pred) > 1.2

    def test_stride_prediction_modest_on_arrays(self):
        """Stride code pipelines anyway; prediction gains little (paper §2)."""
        from repro.workloads import ArraySumWorkload

        trace = trace_workload(ArraySumWorkload(seed=3), max_instructions=30_000)
        base = simulate(trace)
        pred = simulate(trace, outcomes_of(trace, StridePredictor()))
        s = speedup(base, pred)
        assert 0.98 < s < 1.3

    def test_result_counters(self):
        workload = LinkedListWorkload(seed=3)
        trace = trace_workload(workload, max_instructions=10_000)
        outcomes = outcomes_of(trace, HybridPredictor())
        result = simulate(trace, outcomes)
        assert result.loads == trace.summary().loads
        assert result.speculative_correct == int((outcomes == 1).sum())
        assert result.speculative_wrong == int((outcomes == -1).sum())
        assert result.speculative_correct + result.speculative_wrong <= result.loads
        assert 0 <= result.l1_hit_rate <= 1

    def test_outcome_column_contract(self):
        """One entry per load: +1 hides ``prediction_lead`` cycles, -1
        pays the recovery, 0 changes nothing; any other length raises."""
        trace = make_dependent_chain_trace(50)
        none = simulate(trace).cycles
        assert simulate(trace, [0] * 50).cycles == none
        assert simulate(trace, [1] * 50).cycles < none
        assert simulate(trace, [-1] * 50).cycles > none
        for wrong_length in (49, 51):
            with pytest.raises(ValueError, match="has 50 loads"):
                simulate(trace, [0] * wrong_length)

    def test_branch_mispredicts_cost_cycles(self):
        import random

        rng = random.Random(3)
        predictable = Trace("p")
        noisy = Trace("n")
        for i in range(4000):
            predictable.append(3, 0x1000, taken=1)
            noisy.append(3, 0x1000, taken=rng.randrange(2))
        fast = simulate(predictable)
        slow = simulate(noisy)
        assert slow.cycles > fast.cycles * 1.5

    def test_store_to_load_forwarding_binds(self):
        """A pop right after a push must wait for the push's data."""
        t = Trace("sf")
        for i in range(600):
            t.append(2, 0x1000, addr=0x7000, dst=-1, src1=1, src2=2)  # store
            t.append(1, 0x1004, addr=0x7000, dst=3, src1=15)          # load
            t.append(0, 0x1008, dst=1, src1=3)                        # use
        bound = simulate(t)
        # The chain store->load->alu->store... enforces ~2+ cycles per trio.
        assert bound.cycles > 600 * 2

    def test_speedup_zero_cycles_guarded(self):
        with pytest.raises(ValueError):
            speedup(TimingResult(cycles=10), TimingResult(cycles=0))

    def test_machine_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(width=0)
        with pytest.raises(ValueError):
            MachineConfig(l1_latency=0)
        with pytest.raises(ValueError):
            MachineConfig(recovery_penalty=-1)


class TestEndToEndTiming:
    def test_cpu_to_timing_pipeline(self):
        src = """
        main:
            li r1, 0x2000
            li r3, 50
        loop:
            ld r2, 0(r1)
            addi r1, r1, 4
            addi r3, r3, -1
            bne r3, r0, loop
            halt
        """
        mem = Memory()
        trace = Trace("e2e")
        CPU(mem).run(assemble(src), trace=trace)
        result = simulate(trace)
        assert result.instructions == len(trace)
        assert result.cycles > 0


class TestMemoryPorts:
    def test_ports_bound_memory_throughput(self):
        """With all loads L1-resident and independent, the cache ports are
        the binding structural constraint (paper: 4 data cache ports)."""
        t = Trace("ports")
        for i in range(4000):
            t.append(1, 0x1000 + 4 * (i % 8), addr=0x2000, dst=(i % 8) + 1)
        wide = simulate(t, config=MachineConfig(memory_ports=8))
        narrow = simulate(t, config=MachineConfig(memory_ports=4))
        assert narrow.cycles > wide.cycles * 1.8

    def test_alu_code_unaffected_by_ports(self):
        trace = make_independent_alu_trace(4000)
        a = simulate(trace, config=MachineConfig(memory_ports=1))
        b = simulate(trace, config=MachineConfig(memory_ports=8))
        assert a.cycles == b.cycles

    def test_port_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(memory_ports=0)


class TestGoldenCycles:
    """The timing model's cycles stay those pinned in the golden file.

    Tier-1 checks the small-budget grid through the engine and the
    prefetcher cells through ``simulate``; the default-budget grid (225
    fig7/fig12 cells) is ``benchmarks/test_golden_cycles.py``.
    """

    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOBS", "1")

    def test_small_grid_through_engine(self):
        part = GOLDEN["small"]
        jobs = [
            Job(trace=name, factory=spec["factory"], gap=spec["gap"],
                instructions=part["instructions"], kind="timing",
                variant=variant)
            for name in part["cycles"]
            for variant, spec in GOLDEN["variants"].items()
        ]
        cycles = {}
        for result in run_jobs(jobs):
            cycles.setdefault(result.trace, {})[result.variant] = result.cycles
            assert result.metrics is None
            assert (result.backend is None) == (result.variant == "none")
        assert cycles == part["cycles"]

    @pytest.mark.parametrize("name", sorted(GOLDEN["prefetch"]["cycles"]))
    def test_prefetch_cell_through_simulate(self, name):
        part = GOLDEN["prefetch"]
        trace = suites.get_trace(name, part["instructions"])
        result = simulate(
            trace, outcomes_of(trace, HybridPredictor()),
            prefetcher=StridePrefetcher(),
        )
        assert result.cycles == part["cycles"][name]
