"""Unit tests for the instrumented trace generators (the ATOM substitute)."""

import pytest

from repro.analysis.flops import (
    conventional_flops,
    dgefmm_flops,
    winograd_flops,
)
from repro.cachesim.trace import ELEM, CountingSink, TraceCollector
from repro.cachesim.tracegen import (
    TraceOps,
    add2d_trace,
    conversion_trace,
    dgefmm_trace,
    dgemmw_trace,
    matmul_trace,
    modgemm_trace,
    move2d_trace,
    vec3_trace,
)
from repro.core.winograd import winograd_multiply
from repro.core.workspace import Workspace
from repro.layout.matrix import MortonMatrix
from repro.layout.padding import select_common_tiling


class TestMatmulTrace:
    def test_access_count(self):
        sink = TraceCollector()
        n = matmul_trace(3, 4, 5, 0, 3, 1000, 4, 2000, 3, sink)
        assert n == 5 * 4 * (1 + 2 * 3)
        assert sink.total == n

    def test_address_ranges(self):
        sink = TraceCollector()
        matmul_trace(2, 2, 2, 0, 2, 1000, 2, 2000, 2, sink)
        t = sink.concatenate()
        a = t[(t >= 0) & (t < 1000)]
        b = t[(t >= 1000) & (t < 2000)]
        c = t[t >= 2000]
        assert set(a) == {0, 8, 16, 24}          # 2x2 doubles at base 0
        assert set(b) == {1000, 1008, 1016, 1024}
        assert set(c) == {2000, 2008, 2016, 2024}

    def test_first_access_is_b_element(self):
        sink = TraceCollector()
        matmul_trace(2, 2, 2, 0, 2, 1000, 2, 2000, 2, sink)
        assert sink.concatenate()[0] == 1000  # b[0,0] register load

    def test_leading_dimension_strides(self):
        sink = TraceCollector()
        matmul_trace(2, 1, 1, 0, 100, 10**6, 1, 2 * 10**6, 100, sink)
        t = sink.concatenate()
        # column of A: rows 0,1 with ld 100 -> addresses 0 and 8.
        assert 0 in t and 8 in t

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            matmul_trace(0, 1, 1, 0, 1, 0, 1, 0, 1, CountingSink())


class TestVectorTraces:
    def test_vec3_interleaving(self):
        sink = TraceCollector()
        n = vec3_trace(2, 0, 100, 200, sink)
        assert n == 6
        assert list(sink.concatenate()) == [0, 100, 200, 8, 108, 208]

    def test_add2d_strides(self):
        sink = TraceCollector()
        n = add2d_trace(2, 2, 0, 10, 1000, 20, 2000, 30, sink)
        assert n == 12
        t = sink.concatenate()
        # first column of x: 0, 8; second column: 10*8=80, 88.
        assert {0, 8, 80, 88} <= set(t.tolist())

    def test_move2d(self):
        sink = TraceCollector()
        n = move2d_trace(2, 3, 0, 2, 1000, 2, sink)
        assert n == 12
        assert sink.concatenate()[0] == 0  # read before write


class TestConversionTrace:
    def test_count_matches_two_accesses_per_element(self, rng):
        a = rng.standard_normal((20, 20))
        mm = MortonMatrix.from_dense(a)
        sink = CountingSink()
        n = conversion_trace(mm, base_dense=1 << 22, ld_dense=20, sink=sink)
        assert n == 2 * 20 * 20
        assert sink.total == n

    def test_padding_not_read_from_dense(self, rng):
        # The Morton side uses the real buffer address (a large heap
        # pointer); the synthetic dense side sits in a low window, so the
        # two are distinguishable by range.
        a = rng.standard_normal((150, 150))  # pads to 152
        mm = MortonMatrix.from_dense(a)
        sink = TraceCollector()
        base = 1 << 22
        conversion_trace(mm, base_dense=base, ld_dense=150, sink=sink)
        t = sink.concatenate()
        dense = t[(t >= base) & (t < base + (1 << 21))]
        assert dense.size == 150 * 150
        assert dense.max() < base + 150 * 150 * ELEM

    def test_direction_flag(self, rng):
        a = rng.standard_normal((8, 8))
        mm = MortonMatrix.from_dense(a)
        base = 1 << 22
        s1, s2 = TraceCollector(), TraceCollector()
        conversion_trace(mm, base, 8, s1, to_morton=True)
        conversion_trace(mm, base, 8, s2, to_morton=False)
        # Same addresses, opposite read/write interleaving order.
        t1, t2 = s1.concatenate(), s2.concatenate()
        in_dense = lambda x: base <= x < base + (1 << 21)
        assert in_dense(t1[0]) and not in_dense(t2[0])
        assert sorted(t1.tolist()) == sorted(t2.tolist())


class TestTraceOps:
    def test_flops_match_closed_form(self):
        plan = select_common_tiling((100, 100, 100))
        ops = modgemm_trace(plan, CountingSink(), include_conversion=False)
        assert ops.flops == winograd_flops(plan)

    def test_flops_match_closed_form_rectangular(self):
        plan = select_common_tiling((130, 200, 170))
        ops = modgemm_trace(plan, CountingSink(), include_conversion=False)
        assert ops.flops == winograd_flops(plan)

    def test_conversion_adds_accesses(self):
        plan = select_common_tiling((100, 100, 100))
        without = modgemm_trace(plan, CountingSink(), include_conversion=False)
        with_conv = modgemm_trace(plan, CountingSink(), include_conversion=True)
        assert with_conv.accesses > without.accesses

    def test_trace_addresses_are_real_buffers(self):
        # All traced addresses must fall inside allocated numpy buffers, so
        # collect the trace and check every address is sane (> 4096).
        plan = select_common_tiling((64, 64, 64))
        sink = TraceCollector()
        modgemm_trace(plan, sink, include_conversion=False)
        t = sink.concatenate()
        assert (t > 4096).all()

    def test_accesses_equal_sink_total(self):
        plan = select_common_tiling((100, 100, 100))
        sink = CountingSink()
        ops = modgemm_trace(plan, sink)
        assert ops.accesses == sink.total

    def test_regions_cover_all_accesses(self):
        from repro.cachesim.classify import RegionMap

        plan = select_common_tiling((96, 96, 96))
        regions = RegionMap()
        sink = TraceCollector()
        modgemm_trace(plan, sink, regions=regions)
        trace = sink.concatenate()
        labels = regions.labels(trace[:: max(1, trace.size // 500)])
        assert "?" not in labels
        assert any(l.startswith("A.") for l in labels)
        assert any(l.startswith("ws") for l in labels)

    def test_strassen_variant_has_more_adds(self):
        plan = select_common_tiling((150, 150, 150))
        wino = modgemm_trace(plan, CountingSink(), include_conversion=False)
        stra = modgemm_trace(
            plan, CountingSink(), include_conversion=False, variant="strassen"
        )
        assert stra.flops > wino.flops  # 18 vs 15 additions per level

    def test_same_schedule_as_numpy_backend(self, rng):
        # TraceOps drives the same recursion; flop count must equal what a
        # counting arithmetic backend sees.
        plan = select_common_tiling((100, 100, 100))
        tm, tk, tn = plan
        a_mm = MortonMatrix.zeros(100, 100, tm, tk)
        b_mm = MortonMatrix.zeros(100, 100, tk, tn)
        c_mm = MortonMatrix.zeros(100, 100, tm, tn)
        ws = Workspace(tm.depth, tm.tile, tk.tile, tn.tile, with_q=True)
        ops = TraceOps(CountingSink())
        winograd_multiply(a_mm, b_mm, c_mm, ops=ops, workspace=ws)
        assert ops.flops == winograd_flops(plan)


class TestDgefmmTrace:
    def test_flops_match_closed_form(self):
        for dims in [(100, 100, 100), (127, 127, 127), (130, 70, 200)]:
            tr = dgefmm_trace(*dims, CountingSink(), truncation=32)
            assert tr.flops == dgefmm_flops(*dims, truncation=32)

    def test_leaf_only_case(self):
        tr = dgefmm_trace(10, 10, 10, CountingSink(), truncation=64)
        assert tr.flops == conventional_flops(10, 10, 10)

    def test_access_tally(self):
        sink = CountingSink()
        tr = dgefmm_trace(100, 100, 100, sink, truncation=32)
        assert tr.accesses == sink.total


class TestDgemmwTrace:
    def test_runs_and_tallies(self):
        sink = CountingSink()
        tr = dgemmw_trace(100, 100, 100, sink, truncation=32)
        assert tr.accesses == sink.total
        assert tr.flops > conventional_flops(100, 100, 100) * 0.5

    def test_overlap_more_traffic_than_peeling(self):
        # The copy-heavy overlap scheme moves more data.
        s1, s2 = CountingSink(), CountingSink()
        dgemmw_trace(128, 128, 128, s1, truncation=32)
        dgefmm_trace(128, 128, 128, s2, truncation=32)
        assert s1.total > s2.total
