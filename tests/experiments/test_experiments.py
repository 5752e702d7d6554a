"""Smoke and shape tests for the per-figure experiment runners.

These run with deliberately tiny grids/protocols; the full paper grids are
exercised by the benchmark harness.  Each test asserts the *qualitative*
facts the paper reports, not absolute numbers.
"""

import pytest

from repro.analysis.timing import TimingProtocol
from repro.experiments import (
    fig2_padding,
    fig3_tile_locality,
    fig56_perf,
    fig7_conversion,
    fig8_noconversion,
    fig9_cache,
)
from repro.experiments.runner import ExperimentResult

FAST = TimingProtocol(small_threshold=0, small_reps=1, trials=1)


class TestRunnerInfra:
    def test_column_and_series(self):
        r = ExperimentResult(
            name="x", title="t", columns=("a", "b"),
            rows=[(1, 2.0), (3, 4.0)], chart={"s": ("a", "b")},
        )
        assert r.column("b") == [2.0, 4.0]
        assert r.series() == {"s": ([1, 3], [2.0, 4.0])}

    def test_to_text_includes_table_and_chart(self):
        r = ExperimentResult(
            name="x", title="Title", columns=("a", "b"),
            rows=[(1, 2.0), (3, 4.0)], chart={"s": ("a", "b")},
        )
        text = r.to_text()
        assert "Title" in text and "o=s" in text

    def test_to_csv(self):
        r = ExperimentResult("x", "t", ("a", "b"), [(1, 2)])
        assert r.to_csv().splitlines() == ["a,b", "1,2"]


class TestFig2:
    def test_paper_example_row(self):
        r = fig2_padding.run(sizes=[513])
        n, orig, dyn, fixed, tile = r.rows[0]
        assert (n, dyn, fixed, tile) == (513, 528, 1024, 33)

    def test_dynamic_padding_bounded_fixed_unbounded(self):
        r = fig2_padding.run(sizes=range(65, 1025, 3))
        dyn_pad = [row[2] - row[1] for row in r.rows]
        fixed_pad = [row[3] - row[1] for row in r.rows]
        assert max(dyn_pad) <= 15
        assert max(fixed_pad) > 400


class TestFig3:
    def test_contiguous_flat_noncontiguous_dips(self):
        r = fig3_tile_locality.run(machine="alpha", tiles=(32,), ldas=[224, 256, 288])
        non = r.column("noncontig_T32")
        con = r.column("contig_T32")
        # contiguous identical across lda; non-contiguous craters at 256.
        assert len(set(con)) == 1
        assert non[1] < 0.8 * non[0]
        assert non[1] < 0.8 * non[2]

    def test_ultra_variant_runs(self):
        r = fig3_tile_locality.run(machine="ultra", tiles=(24,), ldas=[128, 160])
        assert len(r.rows) == 2

    def test_lda_too_small_rejected(self):
        with pytest.raises(ValueError):
            fig3_tile_locality.tile_multiply_mflops(
                32, 64, fig3_tile_locality.MACHINES["alpha"]
            )


class TestFig56Measured:
    def test_structure_and_positivity(self):
        r = fig56_perf.run_measured(sizes=[96, 150], protocol=FAST)
        assert [row[0] for row in r.rows] == [96, 150]
        for row in r.rows:
            assert all(v > 0 for v in row[1:])

    def test_normalisation_column(self):
        r = fig56_perf.run_measured(sizes=[128], protocol=FAST)
        row = r.rows[0]
        assert row[4] == pytest.approx(row[1] / row[2])


class TestFig56Modeled:
    def test_alpha_model(self):
        r = fig56_perf.run_modeled(machine="alpha", sizes=[150, 300], scale=16)
        assert len(r.rows) == 2
        assert all(row[4] > 0 for row in r.rows)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            fig56_perf.run_modeled(sizes=[150], scale=8)


class TestFig7:
    def test_fraction_decreases_with_size(self):
        # Best of 3 timed calls per size, as TestFig8 takes: one call per
        # size let host load alone invert the ordering.
        protocol = TimingProtocol(small_threshold=0, small_reps=1, trials=3)
        r = fig7_conversion.run(sizes=[128, 600], protocol=protocol)
        pct = r.column("convert_pct")
        assert 0 < pct[1] < pct[0] < 100

    def test_phases_sum(self):
        r = fig7_conversion.run(sizes=[128], protocol=FAST)
        n, to_m, comp, from_m, total, pct = r.rows[0]
        assert total == pytest.approx(to_m + comp + from_m)


class TestFig8:
    def test_noconv_faster_than_full(self):
        # min-of-3 trials to ride out scheduler noise on busy hosts; the
        # conversion work is a strict superset, so the ordering is robust
        # once noise is filtered (5% slack for clock jitter).
        protocol = TimingProtocol(small_threshold=0, small_reps=1, trials=3)
        r = fig8_noconversion.run(sizes=[300], protocol=protocol)
        row = r.rows[0]
        assert row[1] < row[2] * 1.05  # no-conversion beats full modgemm


class TestFig9:
    def test_scaled_run_shows_anomaly(self):
        # Default scale 4; restrict to the sizes bracketing the
        # 513-analogue (257) to keep the test fast.
        r = fig9_cache.run(scale=4, sizes=[255, 256, 257, 258])
        mod = dict(zip(r.column("n_scaled"), r.column("modgemm_miss_pct")))
        dge = dict(zip(r.column("n_scaled"), r.column("dgefmm_miss_pct")))
        # MODGEMM below DGEFMM throughout (paper's first observation).
        for n in (255, 256, 257, 258):
            assert mod[n] < dge[n]
        # The dramatic drop at the 513-analogue (second observation).
        assert mod[257] < 0.8 * mod[256]

    def test_explain_conflict_and_no_conflict(self):
        conflict = fig9_cache.explain(505)
        clean = fig9_cache.explain(513)
        assert "same sets" in conflict
        assert "not a multiple" in clean

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            fig9_cache.run(scale=2)

    def test_full_scale_path_small_sizes(self):
        # scale=1 exercises the paper-exact geometry; tiny sizes keep the
        # trace short.  (The paper-size spot check lives in
        # results/fig9_fullscale.txt.)
        r = fig9_cache.run(scale=1, sizes=[96, 97])
        assert len(r.rows) == 2
        for row in r.rows:
            assert 0 < row[4] < 100 and 0 < row[5] < 100
        # paper-scale labels equal scaled labels at scale 1
        assert r.rows[0][0] == r.rows[0][1] == 96
