"""The per-layer split of one op, measured from outside the engine.

Two instrumented passes run after the timed loop, each in its own fresh
session, and both must reproduce the untraced output bit for bit:

* **Pass A (times).**  The leaf kernel is ``leaf_matmul`` wrapped with a
  timer and registered through ``repro.blas.register_kernel``; the
  session's phase ledger (``stats().timings``) gives convert-in, compute
  and convert-out.  What is left of the call is dispatch.
* **Pass B (counts).**  A session with ``trace=True`` and the stock kernel;
  its ``add`` and ``pack`` events give the addition passes and the fused
  packing time.

Geometry metrics (depth, tile, padding, bytes converted) are computed from
the planner's public ``TruncationPolicy.plan`` and ``plan_panels``.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np
from repro.blas import leaf_matmul, register_kernel
from repro.blas.kernels import leaf_matmul_batch
from repro.core import plan_panels
from repro.engine import GemmSession

from workloads import timed_op

TIMED_KERNEL = "bench-timed-leaf"

#: Ring-buffer size of the pass-B tracer: one op's events must all fit
#: (square_1024 emits ~42k add events per call).
TRACE_CAPACITY = 1 << 18

#: Bytes an addition pass moves per element: two float64 reads, one write.
ADD_BYTES_PER_ELEM = 24

MIB = float(1 << 20)


class LeafTimer:
    """Counts and times every leaf product of the kernels it wraps."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.flops = 0

    def wrap(self, kernel):
        """``kernel`` with a timer around each call; the arithmetic is untouched."""

        def timed(a, b, out, accumulate=False):
            t0 = time.perf_counter()
            kernel(a, b, out, accumulate=accumulate)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            # 2mkn either way: plain tiles are a (m, k) and b (k, n);
            # batched stacks are a (B, k, m) and b (B, n, k).
            self.flops += 2 * a.size * b.shape[1]

        return timed


def _op(session, cases, checkers, tally) -> float:
    """One op over every case; returns its summed wall time."""
    return sum(
        timed_op(case, "engine", lambda: case.engine(session),
                 checkers[ci], tally)
        for ci, case in enumerate(cases)
    )


def _measured_ops(session, cases, checkers, tally, warm_rounds: int,
                  min_ops: int, min_seconds: float):
    """Warm ``session`` up, then yield at least ``min_ops`` ops to measure,
    and more until ``min_seconds`` have passed."""
    for _ in range(1 + warm_rounds):
        _op(session, cases, checkers, tally)
    n, t0 = 0, time.perf_counter()
    while n < min_ops or time.perf_counter() - t0 < min_seconds:
        yield lambda: _op(session, cases, checkers, tally)
        n += 1


def pass_a(cases, checkers, tally, *budget) -> dict:
    """Medians over the measured ops of wall, phase and leaf times (pass A)."""
    timer = LeafTimer()
    register_kernel(
        TIMED_KERNEL,
        timer.wrap(leaf_matmul),
        batch_impl=timer.wrap(leaf_matmul_batch),
        replace=True,
    )
    session = GemmSession(kernel=TIMED_KERNEL)
    rows = []
    for op in _measured_ops(session, cases, checkers, tally, *budget):
        timer.reset()
        before = session.stats().timings
        wall = op()
        after = session.stats().timings
        convert_in = after.to_morton - before.to_morton
        compute = after.compute - before.compute
        convert_out = after.from_morton - before.from_morton
        rows.append({
            "wall": wall,
            "convert_in": convert_in,
            "compute": compute,
            "convert_out": convert_out,
            "dispatch": wall - convert_in - compute - convert_out,
            "non_leaf": compute - timer.seconds,
            "leaf_s": timer.seconds,
            "leaf_calls": timer.calls,
            "leaf_flops": timer.flops,
        })
    session.close()
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def pass_b(cases, checkers, tally, *budget) -> dict:
    """Traced ops: wall, add-pass histogram, pack time, drops (pass B)."""
    session = GemmSession(trace=True, trace_capacity=TRACE_CAPACITY)
    walls, packs, dropped = [], [], 0
    adds: Counter = Counter()
    for op in _measured_ops(session, cases, checkers, tally, *budget):
        session.trace.clear()
        walls.append(op())
        events = session.trace.events()
        dropped = max(dropped, session.trace.dropped)
        adds = Counter(ev.data["elems"] for ev in events if ev.kind == "add")
        packs.append(sum(ev.data["seconds"] for ev in events
                         if ev.kind == "pack"))
    session.close()
    return {
        "wall": statistics.median(walls),
        "pack_s": statistics.median(packs),
        "adds": adds,
        "dropped": dropped,
    }


def add_floor(adds: Counter, items: int, reps: int = 3) -> float:
    """Best-of-``reps`` time to replay an add-size histogram as ``np.add``.

    Each pass of ``elems`` elements (times ``items`` on the stacked-batch
    path) becomes one ``np.add`` over private buffers: the cost of the
    same additions with no recursion around them.
    """
    if not adds:
        return 0.0
    size = max(adds) * items
    x, y, out = np.ones(size), np.ones(size), np.empty(size)
    work = [(x[: e * items], y[: e * items], out[: e * items], count)
            for e, count in adds.items()]
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for xs, ys, os_, count in work:
            for _ in range(count):
                np.add(xs, ys, out=os_)
        best = min(best, time.perf_counter() - t0)
    return best


def geometry(w, policy) -> dict:
    """Leaf geometry of one op, computed from the planner's public API.

    Every case is either one well-behaved tiling or, when no common
    recursion depth exists, the panels ``plan_panels`` cuts it into.
    ``convert_mb`` counts dense and padded Morton elements read and
    written once per conversion, plus the beta read of C.
    """
    subs = []
    for m, k, n in w.shapes:
        tilings = policy.plan(m, k, n)
        if tilings is not None:
            subs.append(((m, k, n), tilings))
            continue
        for p in plan_panels(m, k, n, policy.tile_range):
            dims = (p.m1 - p.m0, p.k1 - p.k0, p.n1 - p.n0)
            subs.append((dims, policy.plan(*dims)))
    depth, leaves, edge_sum, logical, padded, elems = 0, 0, 0.0, 0, 0, 0
    for (m, k, n), tilings in subs:
        logical += m * k * n
        if tilings is None:  # a residue multiplied directly, no conversion
            padded += m * k * n
            continue
        tm, tk, tn = tilings
        depth = max(depth, tm.depth)
        count = 7 ** tm.depth
        leaves += count
        edge_sum += count * (tm.tile * tk.tile * tn.tile) ** (1.0 / 3.0)
        padded += tm.padded * tk.padded * tn.padded
        elems += (m * k + tm.padded * tk.padded + k * n + tk.padded * tn.padded
                  + tm.padded * tn.padded + m * n)
        if w.beta != 0.0:
            elems += m * n
    return {
        "core.depth": depth,
        "core.tile": edge_sum / leaves if leaves else 0.0,
        "core.pad_frac": 1.0 - logical / padded,
        "layout.convert_mb": 8 * elems * w.items / MIB,
    }


def layer_metrics(w, cases, checkers, tally, policy, untraced_p50: float,
                  *budget) -> dict:
    """The pass-A/pass-B split and computed geometry of one op.

    ``budget`` is ``(warm_rounds, min_ops, min_seconds)`` for each pass.
    """
    a = pass_a(cases, checkers, tally, *budget)
    b = pass_b(cases, checkers, tally, *budget)
    floor = add_floor(b["adds"], w.items)
    overhead = a["non_leaf"] - floor
    add_elems = sum(e * c for e, c in b["adds"].items()) * w.items
    out = {
        "engine.dispatch_s": a["dispatch"],
        "layout.convert_in_s": a["convert_in"],
        "layout.convert_out_s": a["convert_out"],
        "layout.convert_frac": (a["convert_in"] + a["convert_out"]) / a["wall"],
        "layout.pack_s": b["pack_s"],
        "core.compute_s": a["compute"],
        "core.add_passes": sum(b["adds"].values()),
        "core.add_mb": ADD_BYTES_PER_ELEM * add_elems / MIB,
        "core.add_floor_s": floor,
        "core.overhead_s": overhead,
        "core.overhead_frac": overhead / a["wall"],
        "core.flop_ratio": a["leaf_flops"] / w.flops,
        "blas.leaf_calls": a["leaf_calls"],
        "blas.leaf_s": a["leaf_s"],
        "blas.leaf_frac": a["leaf_s"] / a["wall"],
        "blas.leaf_gflops": a["leaf_flops"] / a["leaf_s"] / 1e9,
        "trace.overhead_frac.a": a["wall"] / untraced_p50 - 1.0,
        "trace.overhead_frac.b": b["wall"] / untraced_p50 - 1.0,
        "trace.dropped": b["dropped"],
    }
    out.update(geometry(w, policy))
    return out
