"""Memory-schedule benchmark: GFLOP/s and peak bytes per schedule.

Runs every memory schedule (``classic``, ``two_temp``, ``ip_overwrite``)
over a grid of sizes and emits ``BENCH_memory.json`` at the repo root
with, per cell:

* warm throughput (best-of-rounds GFLOP/s),
* the plan's accounted scratch (``CompiledPlan.scratch_bytes``),
* the session's ``peak_scratch_bytes`` / ``fused_adds`` counters,
* a tracemalloc-measured cold peak (fresh session, first multiply).

Hard assertions are limited to deterministic claims that hold on any
host, including single-core CI runners:

* every schedule is bit-identical to classic,
* ``two_temp`` accounted scratch is at most 60 % of classic whenever
  the plan recurses to depth >= 3 (analytically it is exactly 50 % for
  square problems),
* ``ip_overwrite`` owns zero scratch.

Throughput ratios are recorded in the JSON for the validator and for
humans; they are not hard-asserted here because wall-clock on shared CI
is noisy.  Set ``BENCH_MEMORY_QUICK=1`` for a seconds-scale smoke run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.analysis import measure_peak
from repro.engine import MEMORY_SCHEDULES, GemmSession

QUICK = os.environ.get("BENCH_MEMORY_QUICK", "") not in ("", "0")
SIZES = [192] if QUICK else [512, 1024]
ROUNDS = 2 if QUICK else 4
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_memory.json"


@pytest.fixture(scope="module")
def report():
    data = {
        "benchmark": "memory-schedules",
        "schema_version": 2,
        "quick": QUICK,
        "host": {"cpu_count": os.cpu_count() or 1},
        "rows": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_memory.json", f"wrote {OUT_PATH} ({len(data['rows'])} rows)")


def _timed(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _cell(n, a, b, ref, memory):
    """Measure one (schedule, size) cell; returns a row dict."""

    # Cold peak: fresh session, first multiply, tracemalloc-measured.
    def cold():
        with GemmSession() as s:
            return s.multiply(a, b, memory=memory)

    out, cold_peak = measure_peak(cold)
    bit_identical = bool(np.array_equal(out, ref))

    with GemmSession() as s:
        plan = s.plan(n, n, n, memory=memory)
        s.multiply(a, b, memory=memory)  # warm the pools
        secs = _timed(lambda: s.multiply(a, b, memory=memory))
        st = s.stats()
        row = {
            "n": n,
            "depth": plan.tilings[0].depth if plan.tilings else 0,
            "schedule": memory,
            "seconds": secs,
            "gflops": 2.0 * n**3 / secs / 1e9,
            "plan_scratch_bytes": plan.scratch_bytes,
            "session_peak_scratch_bytes": st.peak_scratch_bytes,
            "fused_adds": st.fused_adds,
            "measured_peak_bytes": cold_peak,
            "bit_identical": bit_identical,
        }
    return row


@pytest.mark.parametrize("n", SIZES)
def test_memory_schedule_grid(square_operands, report, n):
    a, b = square_operands(n)
    with GemmSession() as s:
        ref = s.multiply(a, b)
    assert np.allclose(ref, a @ b)

    rows = [_cell(n, a, b, ref, memory) for memory in MEMORY_SCHEDULES]
    report["rows"].extend(rows)

    by = {r["schedule"]: r for r in rows}
    classic = by["classic"]
    lean = by["two_temp"]
    ip = by["ip_overwrite"]

    # Deterministic guarantees, safe on any host.
    assert all(r["bit_identical"] for r in rows)
    assert ip["plan_scratch_bytes"] == 0
    if classic["depth"] >= 3:
        assert classic["plan_scratch_bytes"] > 0
        assert (
            lean["plan_scratch_bytes"]
            <= 0.6 * classic["plan_scratch_bytes"]
        )
        assert (
            lean["session_peak_scratch_bytes"]
            < classic["session_peak_scratch_bytes"]
        )
    assert lean["fused_adds"] > 0
    assert classic["fused_adds"] == 0

    lines = [
        f"{'sched':<13} {'GFLOP/s':>8} {'scratch':>12} "
        f"{'peak(track)':>12} {'cold peak':>12}"
    ]
    for r in rows:
        lines.append(
            f"{r['schedule']:<13} {r['gflops']:>8.2f} "
            f"{r['plan_scratch_bytes']:>12} "
            f"{r['session_peak_scratch_bytes']:>12} "
            f"{r['measured_peak_bytes']:>12}"
        )
    ratio = lean["gflops"] / classic["gflops"] if classic["gflops"] else 0.0
    lines.append(
        f"two_temp/classic: scratch "
        f"{lean['plan_scratch_bytes'] / max(1, classic['plan_scratch_bytes']):.2f}x, "
        f"throughput {ratio:.2f}x"
    )
    emit(f"memory schedules n={n} depth={classic['depth']}", "\n".join(lines))
