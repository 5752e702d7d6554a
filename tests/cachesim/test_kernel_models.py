"""Unit tests for the two leaf-kernel trace models (jki vs blocked)."""

import pytest

from repro.cachesim.cache import CacheConfig
from repro.cachesim.trace import CountingSink, TraceCollector
from repro.cachesim.tracegen import (
    TraceOps,
    dgefmm_trace,
    matmul_trace,
    matmul_trace_blocked,
    modgemm_trace,
)
from repro.cachesim.vectorized import DirectMappedCache
from repro.layout.padding import select_common_tiling


class TestBlockedTrace:
    def test_access_count_formula(self):
        m, k, n, blk = 5, 13, 4, 8
        cnt = matmul_trace_blocked(
            m, k, n, 0, m, 10**6, k, 2 * 10**6, m, CountingSink(), block=blk
        )
        assert cnt == n * (k + m * k + 2 * m * -(-k // blk))

    def test_fewer_c_touches_than_jki(self):
        s1, s2 = CountingSink(), CountingSink()
        matmul_trace(16, 16, 16, 0, 16, 10**6, 16, 2 * 10**6, 16, s1)
        matmul_trace_blocked(16, 16, 16, 0, 16, 10**6, 16, 2 * 10**6, 16, s2)
        assert s2.total < s1.total

    def test_same_address_footprint(self):
        # Both models touch exactly the same elements, just with
        # different reuse patterns.
        c1, c2 = TraceCollector(), TraceCollector()
        matmul_trace(6, 7, 5, 0, 6, 10**6, 7, 2 * 10**6, 6, c1)
        matmul_trace_blocked(6, 7, 5, 0, 6, 10**6, 7, 2 * 10**6, 6, c2, block=3)
        assert set(c1.concatenate().tolist()) == set(c2.concatenate().tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            matmul_trace_blocked(0, 1, 1, 0, 1, 0, 1, 0, 1, CountingSink())
        with pytest.raises(ValueError):
            matmul_trace_blocked(1, 1, 1, 0, 1, 0, 1, 0, 1, CountingSink(), block=0)

    def test_blocked_lowers_miss_pressure(self):
        # With register-held accumulators the C column stops thrashing:
        # miss *count* can only drop or stay equal for the same cache.
        cfg = CacheConfig(512, 32, 1)
        dm1, dm2 = DirectMappedCache(cfg), DirectMappedCache(cfg)
        c1, c2 = TraceCollector(), TraceCollector()
        matmul_trace(24, 24, 24, 0, 24, 10**6, 24, 2 * 10**6, 24, c1)
        matmul_trace_blocked(24, 24, 24, 0, 24, 10**6, 24, 2 * 10**6, 24, c2)
        dm1.access(c1.concatenate())
        dm2.access(c2.concatenate())
        assert dm2.stats.misses <= dm1.stats.misses


class TestModelSelection:
    def test_trace_ops_model_flag(self):
        plan = select_common_tiling((100, 100, 100))
        jki = modgemm_trace(plan, CountingSink(), include_conversion=False)
        blocked = modgemm_trace(
            plan, CountingSink(), include_conversion=False, kernel_model="blocked"
        )
        assert blocked.accesses < jki.accesses
        assert blocked.flops == jki.flops  # the arithmetic is identical

    def test_dgefmm_model_flag(self):
        jki = dgefmm_trace(100, 100, 100, CountingSink(), truncation=32)
        blk = dgefmm_trace(
            100, 100, 100, CountingSink(), truncation=32, kernel_model="blocked"
        )
        assert blk.accesses < jki.accesses
        assert blk.flops == jki.flops

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            TraceOps(CountingSink(), kernel_model="simd")
        with pytest.raises(ValueError):
            dgefmm_trace(10, 10, 10, CountingSink(), kernel_model="nope")
