"""Figure 3 bench: tile-multiply MFLOPS vs leading dimension.

Times the trace-generation + cache-simulation pipeline for one tile
multiply and regenerates both panels' qualitative content: contiguous
tiles flat across leading dimensions, non-contiguous tiles cratering at
the power-of-two leading dimension.
"""

from repro.cachesim.machines import ALPHA_MIATA
from repro.experiments import fig3_tile_locality
from repro.experiments.fig3_tile_locality import tile_multiply_mflops

from conftest import emit

LDAS = [128, 160, 192, 224, 240, 256, 272, 288, 320]


def test_fig3_pipeline_cost(benchmark):
    mflops = benchmark(tile_multiply_mflops, 32, 256, ALPHA_MIATA)
    assert mflops > 0


def test_fig3a_alpha(benchmark):
    result = benchmark.pedantic(
        lambda: fig3_tile_locality.run(machine="alpha", tiles=(24, 28, 32), ldas=LDAS),
        rounds=1,
        iterations=1,
    )
    non = dict(zip(result.column("lda"), result.column("noncontig_T32")))
    con = result.column("contig_T32")
    assert len(set(con)) == 1, "contiguous tiles must be insensitive to lda"
    assert non[256] < 0.8 * non[224], "power-of-two lda must crater"
    emit("Figure 3a (DEC Alpha)", result.to_text(with_chart=False))


def test_fig3b_ultra(benchmark):
    result = benchmark.pedantic(
        lambda: fig3_tile_locality.run(machine="ultra", tiles=(24, 28, 32), ldas=LDAS),
        rounds=1,
        iterations=1,
    )
    non = dict(zip(result.column("lda"), result.column("noncontig_T32")))
    assert non[256] < non[224], "instability present on the Ultra too"
    emit("Figure 3b (Sun Ultra 60)", result.to_text(with_chart=False))
