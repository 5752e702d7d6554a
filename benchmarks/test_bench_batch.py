"""Stacked-batch benchmark: items/sec for batched vs threaded vs loop.

Runs same-geometry batches through the three dispatch paths

* **batched** — ``multiply_many(..., batch="auto")``: one stacked-Morton
  :class:`BatchPlan` recursion over the whole ``(B, ...)`` stack,
* **threaded** — ``multiply_many(..., batch=False)``: the per-item thread
  pool, where same-geometry items serialise on their shared plan's lock,
* **loop** — a plain sequential ``session.multiply`` per item,

over sizes {64, 96, 128} x batch sizes {8, 32, 128} and emits
``BENCH_batch.json`` at the repo root with per-cell items/sec, GFLOP/s,
and the batched/threaded and batched/loop speedups.

Hard assertions here are limited to deterministic claims (bit-identity of
the three paths, counter movement); the throughput guard — batched is at
least 3x the threaded path's items/sec for batches >= 32 of 96x96 — is
enforced by ``validate_bench_batch.py`` on the emitted JSON, in CI via
``make bench-smoke``.  Set ``BENCH_BATCH_QUICK=1`` for a seconds-scale
smoke run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.engine import GemmSession

QUICK = os.environ.get("BENCH_BATCH_QUICK", "") not in ("", "0")
SIZES = [64, 96] if QUICK else [64, 96, 128]
BATCHES = [8, 32] if QUICK else [8, 32, 128]
ROUNDS = 3 if QUICK else 5
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


@pytest.fixture(scope="module")
def report():
    data = {
        "benchmark": "stacked-batch",
        "schema_version": 1,
        "quick": QUICK,
        "host": {"cpu_count": os.cpu_count() or 1},
        "rows": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_batch.json", f"wrote {OUT_PATH} ({len(data['rows'])} rows)")


def _best_seconds(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(pairs, runner):
    """Warm the session once, then best-of-rounds items/sec."""
    runner()  # plan compile + pool warm-up
    secs = _best_seconds(runner)
    return secs


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch_items", BATCHES)
def test_batch_dispatch_grid(rng, report, n, batch_items):
    pairs = [
        (
            np.asfortranarray(rng.standard_normal((n, n))),
            np.asfortranarray(rng.standard_normal((n, n))),
        )
        for _ in range(batch_items)
    ]
    flops_per_item = 2.0 * n**3

    with GemmSession() as s:
        secs_batched = _measure(pairs, lambda: s.multiply_many(pairs))
        outs_batched = s.multiply_many(pairs)
        stats = s.stats()
    with GemmSession() as s:
        secs_threaded = _measure(
            pairs, lambda: s.multiply_many(pairs, batch=False)
        )
        outs_threaded = s.multiply_many(pairs, batch=False)
    with GemmSession() as s:
        secs_loop = _measure(
            pairs, lambda: [s.multiply(a, b) for a, b in pairs]
        )
        outs_loop = [s.multiply(a, b) for a, b in pairs]

    # The three paths are the same recursion in different dispatch
    # clothing: results must be bit-identical, not merely close.
    for ob, ot, ol in zip(outs_batched, outs_threaded, outs_loop):
        assert np.array_equal(ob, ot)
        assert np.array_equal(ob, ol)
    assert stats.batched_executes >= 1
    assert stats.batch_items >= batch_items

    row = {
        "n": n,
        "batch": batch_items,
        "batched_items_per_sec": batch_items / secs_batched,
        "threaded_items_per_sec": batch_items / secs_threaded,
        "loop_items_per_sec": batch_items / secs_loop,
        "batched_gflops": flops_per_item * batch_items / secs_batched / 1e9,
        "threaded_gflops": flops_per_item * batch_items / secs_threaded / 1e9,
        "loop_gflops": flops_per_item * batch_items / secs_loop / 1e9,
        "speedup_vs_threaded": secs_threaded / secs_batched,
        "speedup_vs_loop": secs_loop / secs_batched,
        "bit_identical": True,
        "batched_executes": stats.batched_executes,
    }
    report["rows"].append(row)
    emit(
        f"batch n={n} B={batch_items}",
        f"batched {row['batched_items_per_sec']:8.0f} it/s "
        f"({row['batched_gflops']:.2f} GFLOP/s) | "
        f"threaded {row['threaded_items_per_sec']:8.0f} it/s | "
        f"loop {row['loop_items_per_sec']:8.0f} it/s | "
        f"{row['speedup_vs_threaded']:.2f}x vs threaded, "
        f"{row['speedup_vs_loop']:.2f}x vs loop",
    )
