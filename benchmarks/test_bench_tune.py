"""Plan-store/autotuner benchmark: warm-up amortisation and tuned safety.

Two guarantees of the ``repro.tune`` subsystem are measured and guarded:

* **warm_store** rows — a session opened against a warm store replays
  every tuned decision: ``store_hits > 0``, zero calibration trials (no
  ``autotune_trial`` events), and the warm session's *first* call latency
  beats the cold session's total cost (autotune calibration + its first
  call) — the one-time-warm-up-across-processes claim.
* **tuned_vs_default** rows — the autotuned plan choice, over a median
  of interleaved rounds, is never slower than the heuristic default by
  more than 2%, and its results are bit-identical to the default plan's
  (the default search space varies only bit-stable axes).

Emits ``BENCH_tune.json`` at the repo root; hard guards live in
``validate_bench_tune.py`` (run by ``make tune-smoke`` / ``bench-smoke``
and CI).  Set ``BENCH_TUNE_QUICK=1`` for a seconds-scale smoke run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.core.truncation import TruncationPolicy
from repro.engine.session import GemmSession
from repro.tune.store import PlanStore

QUICK = os.environ.get("BENCH_TUNE_QUICK", "") not in ("", "0")
SIZES = [513] if QUICK else [513, 1024]
#: Interleaved timing rounds for the tuned-vs-default median (the
#: acceptance guard wants >= 5 on the full run; quick mode uses *more*
#: rounds, not fewer — its 513-only multiplies are cheap and a median
#: of 3 at ~50 ms/call is inside host noise of the 2% guard).
ROUNDS = 9 if QUICK else 7
#: Autotune's own internal rounds (its trials are the "calibration cost"
#: the warm session must beat, so keep them realistic but bounded).
TUNE_ROUNDS = 2 if QUICK else 3
#: Hysteresis handed to the tuner: a challenger must beat the heuristic
#: default by more than this to displace it.  Wider than the library's
#: 1% default because CI hosts are noisy (often single-core, where a
#: candidate can win a 1% coin-flip it cannot repeat) and a spurious
#: winner would trip the 2% tuned-vs-default guard below.
TUNE_MARGIN = 0.03
TRACE_CAPACITY = 1 << 16
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_tune.json"


@pytest.fixture(scope="module")
def report():
    data = {
        "benchmark": "plan-store-tune",
        "schema_version": 1,
        "quick": QUICK,
        "host": {"cpu_count": os.cpu_count() or 1},
        "rows": [],
    }
    yield data
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    emit("BENCH_tune.json", f"wrote {OUT_PATH} ({len(data['rows'])} rows)")


@pytest.fixture(scope="module")
def warm_stores(tmp_path_factory):
    """One tuned store per size, built once and shared by both legs."""
    stores = {}
    for n in SIZES:
        path = tmp_path_factory.mktemp("tune") / f"plans_{n}.json"
        stores[n] = {"path": path}
    return stores


@pytest.mark.parametrize("n", SIZES)
def test_warm_store_skips_calibration(square_operands, report, warm_stores,
                                      n):
    a, b = square_operands(n)
    path = warm_stores[n]["path"]

    # ---- cold leg: empty store, autotune pays the calibration cost ----
    t0 = time.perf_counter()
    with GemmSession(plan_store=path) as cold:
        tune = cold.autotune([n], rounds=TUNE_ROUNDS, margin=TUNE_MARGIN)
        t1 = time.perf_counter()
        cold.multiply(a, b)
        cold_first = time.perf_counter() - t1
        autotune_seconds = cold.stats().autotune_seconds
    cold_total = time.perf_counter() - t0
    winner = tune.reports[0].winner
    warm_stores[n]["winner_label"] = winner.label if winner else None

    # ---- warm leg: a fresh session against the flushed store ----------
    with GemmSession(plan_store=path, trace=True,
                     trace_capacity=TRACE_CAPACITY) as warm:
        t2 = time.perf_counter()
        warm.multiply(a, b)
        warm_first = time.perf_counter() - t2
        stats = warm.stats()
        events = warm.trace.events()
        trial_events = sum(1 for e in events if e.kind == "autotune_trial")
        lookup_hits = sum(
            1 for e in events
            if e.kind == "store_lookup" and (e.data or {}).get("hit")
        )

    assert stats.store_hits > 0
    assert trial_events == 0
    assert warm_first < cold_total, (
        f"warm first call ({warm_first:.3f}s) did not beat the cold "
        f"session's calibration+first-call cost ({cold_total:.3f}s)"
    )

    row = {
        "kind": "warm_store",
        "n": n,
        "cold_autotune_seconds": autotune_seconds,
        "cold_first_seconds": cold_first,
        "cold_total_seconds": cold_total,
        "warm_first_seconds": warm_first,
        "store_hits": stats.store_hits,
        "store_lookup_hit_events": lookup_hits,
        "autotune_trial_events": trial_events,
        "winner": warm_stores[n]["winner_label"],
    }
    report["rows"].append(row)
    emit(
        f"warm-store n={n}",
        f"cold autotune {autotune_seconds * 1e3:7.1f} ms + first "
        f"{cold_first * 1e3:6.1f} ms (total {cold_total * 1e3:7.1f} ms)\n"
        f"warm first   {warm_first * 1e3:7.1f} ms, "
        f"{stats.store_hits} store hit(s), {trial_events} trial events",
    )


@pytest.mark.parametrize("n", SIZES)
def test_tuned_never_slower_than_default(square_operands, report,
                                         warm_stores, n):
    a, b = square_operands(n)
    path = warm_stores[n]["path"]
    assert PlanStore(path).lookup(n, n, n) is not None, (
        "warm-store leg must run first (module test order)"
    )

    # Resolve the heuristic default's full plan parameters from a
    # store-less session, then race the store-backed decision against
    # that explicit default INSIDE one session: explicit caller args
    # outrank the store, and sharing the session removes the
    # per-session buffer-allocation draw (two sessions running
    # *identical* plans measure up to ~3% apart on this host — buffer
    # alignment moves the conflict-miss cost, the paper's Section 4.2
    # effect — which is session luck, not the plan choice under test).
    with GemmSession() as plain:
        default_plan = plain.plan(n, n, n)
        default_key = default_plan.key
        default_tilings = default_plan.tilings
    # Pin the default's *resolved* (T, d) rather than passing its
    # dynamic policy object through: when the stored decision matches
    # the heuristic (the common case on quiet hosts) both legs then
    # share one PlanKey — and one compiled plan, one set of buffers —
    # so the ratio measures the plan choice, not two allocations.
    default_policy = TruncationPolicy.pinned_tiling(
        n, n, n,
        tuple(t.tile for t in default_tilings),
        default_tilings[0].depth,
    )
    default_kwargs = dict(
        policy=default_policy, kernel=default_key.kernel,
        variant=default_key.variant, memory=default_key.memory,
    )

    with GemmSession(plan_store=path) as sess:
        out_tuned = sess.multiply(a, b)
        out_default = sess.multiply(a, b, **default_kwargs)
        bit_identical = bool(np.array_equal(
            out_tuned.view(np.int64), out_default.view(np.int64)
        ))
        same_plan = sess.plan(n, n, n).key == sess.plan(
            n, n, n, **default_kwargs
        ).key
        # Second warm-up so both plans' buffers are warm.
        sess.multiply(a, b)
        sess.multiply(a, b, **default_kwargs)

        def measure():
            tuned_times, default_times = [], []
            legs = [(None, tuned_times), (default_kwargs, default_times)]
            for rnd in range(ROUNDS):
                # Interleaved and ping-ponged: host timing drifts as
                # the process warms, so a fixed order would flatter
                # whichever leg runs later in the round.
                for kwargs, sink in (legs if rnd % 2 == 0 else legs[::-1]):
                    t0 = time.perf_counter()
                    if kwargs is None:
                        sess.multiply(a, b)
                    else:
                        sess.multiply(a, b, **kwargs)
                    sink.append(time.perf_counter() - t0)
            return tuned_times, default_times

        # Up to one re-measure: a genuine plan regression repeats; a
        # host-noise burst that happened to sit on one leg's rounds
        # does not.
        for attempt in range(2):
            attempts = attempt + 1
            tuned_times, default_times = measure()
            tuned_med = float(np.median(tuned_times))
            default_med = float(np.median(default_times))
            # Two one-sided estimators: the median of per-round paired
            # ratios (cancels warm-up drift) and the ratio of
            # cross-round medians (robust to single-round bursts).  A
            # real >2% regression moves both; bursts move one or the
            # other, so — like the autotuner's own confirmation duel —
            # the guard trips only when the estimators agree.
            ratio_paired = float(np.median([
                t / d for t, d in zip(tuned_times, default_times)
            ]))
            ratio_medians = tuned_med / default_med
            ratio = min(ratio_paired, ratio_medians)
            if ratio <= 1.02:
                break
        stats = sess.stats()
    assert stats.store_hits > 0, "tuned leg never consulted the store"
    assert bit_identical, "tuned plan changed result bits vs the default"
    assert ratio <= 1.02, (
        f"tuned plan {ratio_paired:.3f}x (paired) / {ratio_medians:.3f}x "
        f"(medians) the default at n={n} "
        f"({tuned_med * 1e3:.1f} ms vs {default_med * 1e3:.1f} ms)"
    )

    row = {
        "kind": "tuned_vs_default",
        "n": n,
        "rounds": ROUNDS,
        "tuned_median_seconds": tuned_med,
        "default_median_seconds": default_med,
        "ratio": ratio,
        "ratio_paired": ratio_paired,
        "ratio_medians": ratio_medians,
        "attempts": attempts,
        "bit_identical": bit_identical,
        "same_plan": bool(same_plan),
        "winner": warm_stores[n].get("winner_label"),
    }
    report["rows"].append(row)
    emit(
        f"tuned-vs-default n={n}",
        f"tuned   {tuned_med * 1e3:7.1f} ms (median of {ROUNDS})\n"
        f"default {default_med * 1e3:7.1f} ms -> ratio {ratio:.3f} "
        f"(paired {ratio_paired:.3f}, medians {ratio_medians:.3f}), "
        f"bit-identical={bit_identical}, same-plan={same_plan}",
    )
