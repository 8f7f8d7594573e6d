"""Regression tests for the incomplete-``reset()`` bug class (R001).

PR 3's differential verifier caught ``PipelinedPredictor.reset()``
leaving its embedded branch predictor and flush counter trained; the
R001 lint rule found the same latent pattern in the timing layer
(``CacheLevel``/``CacheHierarchy``/``StridePrefetcher`` had *no* reset
at all).  Each test here pins the fix the same way the PR 3 pattern did:
state is exercised, reset, and the object must then behave
bit-identically to a freshly constructed one.
"""

import random

import pytest

from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_scalar
from repro.kernels import run_batch
from repro.timing.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.timing.prefetch import PrefetchConfig, StridePrefetcher
from test_kernels import ROSTER, make_stream, metrics_tuple


def _exercise_level(level, base=0x1000):
    """A reuse-heavy access pattern with both hits and misses."""
    pattern = [base + 32 * i for i in range(64)] + [base, base + 32, base]
    return [level.access(addr) for addr in pattern]


class TestCacheLevelReset:
    def test_statistics_cleared(self):
        level = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        _exercise_level(level)
        assert level.hits > 0 and level.misses > 0
        level.reset()
        assert level.hits == 0
        assert level.misses == 0
        assert level.hit_rate == 0.0

    def test_behaves_like_fresh_instance(self):
        config = CacheConfig(size_bytes=1024, line_bytes=32, ways=2)
        reused = CacheLevel(config)
        _exercise_level(reused)
        reused.reset()

        fresh = CacheLevel(config)
        assert _exercise_level(reused) == _exercise_level(fresh)
        assert (reused.hits, reused.misses) == (fresh.hits, fresh.misses)

    def test_lines_invalidated(self):
        level = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        assert level.access(0x2000) is False  # cold miss
        assert level.access(0x2000) is True   # now resident
        level.reset()
        assert level.access(0x2000) is False  # resident line must be gone


class TestCacheHierarchyReset:
    def test_latencies_match_fresh_instance(self):
        def run(h):
            return [h.access(0x4000 + 32 * (i % 40)) for i in range(200)]

        reused = CacheHierarchy()
        run(reused)
        reused.reset()

        fresh = CacheHierarchy()
        assert run(reused) == run(fresh)
        assert reused.l1.hits == fresh.l1.hits
        assert reused.l2.misses == fresh.l2.misses


class TestStridePrefetcherReset:
    @staticmethod
    def _drive(prefetcher, caches, loads=50):
        for i in range(loads):
            prefetcher.observe(0x100, 0x8000 + 64 * i, caches)

    def test_issue_count_and_table_cleared(self):
        prefetcher = StridePrefetcher(PrefetchConfig(entries=64, ways=2))
        self._drive(prefetcher, CacheHierarchy())
        assert prefetcher.issued > 0
        assert len(prefetcher.table) > 0
        prefetcher.reset()
        assert prefetcher.issued == 0
        assert len(prefetcher.table) == 0

    def test_behaves_like_fresh_instance(self):
        config = PrefetchConfig(entries=64, ways=2)
        reused = StridePrefetcher(config)
        self._drive(reused, CacheHierarchy())
        reused.reset()

        fresh = StridePrefetcher(config)
        self._drive(reused, CacheHierarchy())
        self._drive(fresh, CacheHierarchy())
        # A trained-but-unreset table would keep its confident strides and
        # issue prefetches from the very first observation again.
        assert reused.issued == fresh.issued


class TestKernelRunReset:
    """A batch-kernel run leaves its tables unbuilt, each with a pending
    fill of the run's end state.  ``reset()`` must drop the fill along
    with the storage: a fill that survived would be applied when the
    next run first reads the table."""

    @pytest.mark.parametrize("name,factory,dump", ROSTER,
                             ids=[name for name, _, _ in ROSTER])
    def test_scalar_run_after_reset_matches_fresh(self, name, factory, dump):
        stream = make_stream(random.Random(f"reset-{name}"), 1500, 23)
        reused = factory()
        assert run_batch(reused, stream) is not None
        reused.reset()

        fresh = factory()
        m_reused, m_fresh = PredictorMetrics(), PredictorMetrics()
        run_scalar(reused, stream, m_reused)
        run_scalar(fresh, stream, m_fresh)
        assert metrics_tuple(m_reused) == metrics_tuple(m_fresh)
        assert dump(reused) == dump(fresh)
