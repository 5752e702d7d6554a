"""Benches for the future-work extensions (see EXPERIMENTS.md).

* conflict-aware truncation: the miss-ratio/flop trade across the
  Figure 9 window;
* three-C miss classification: the CProf-style diagnosis cost and result.
"""

import pytest

from repro.experiments import ext_conflict_aware, ext_miss_classification

from conftest import emit


def test_conflict_aware_window(benchmark):
    result = benchmark.pedantic(
        lambda: ext_conflict_aware.run(scale=4), rounds=1, iterations=1
    )
    std = result.column("std_miss_pct")
    aware = result.column("aware_miss_pct")
    # In the power-of-two regime the aware policy must cut misses; at the
    # already-clean sizes it picks the same tiling (miss ratios then agree
    # up to run-to-run buffer-placement variance).
    assert aware[0] < 0.8 * std[0]
    assert result.column("tile_std")[-1] == result.column("tile_aware")[-1]
    assert aware[-1] == pytest.approx(std[-1], rel=0.15)
    emit("Conflict-aware tile selection (Figure 9 extension)",
         result.to_text(with_chart=False))


def test_miss_classification_window(benchmark):
    result = benchmark.pedantic(
        lambda: ext_miss_classification.run(scale=16), rounds=1, iterations=1
    )
    rows = {r[1]: r for r in result.rows}
    mid = 129  # the 513 analogue at scale 16
    # Conflict component collapses; capacity stays roughly flat.
    assert rows[mid][6] < 0.6 * rows[mid - 1][6]
    assert abs(rows[mid][5] - rows[mid - 1][5]) < 2.0
    emit("Three-C classification (CProf reproduction)",
         result.to_text(with_chart=False))
