"""Engine x plan-store integration: precedence, key resolution, calibration.

The regression at the heart of this file: a plan's conversion-site
loop-vs-indexed calibration used to live only on the plan object, so an
LRU eviction threw the measured verdict away and the next compile of the
same geometry re-ran both trial executions.  With a plan store attached,
the verdict persists — across evictions and across sessions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.blas.kernels import get_accumulate_cap, get_kernel, set_accumulate_cap
from repro.engine.session import GemmSession
from repro.layout.convert import calibration_key
from repro.observe.schema import EVENT_KINDS, validate_trace
from repro.tune.store import (
    STORE_SCHEMA, STORE_VERSION, PlanStore, StoredDecision, shape_key,
)

# Sites calibrate only at depth >= CONVERT_TABLE_MIN_DEPTH (3); 129 at
# the default dynamic policy splits to depth 3 (tile 17) or similar only
# for larger n, so use fused_pack=False + an explicit fixed policy that
# forces depth >= 3 on a small matrix to keep the test fast.
N = 136  # 17 * 2**3
POLICY = 17  # fixed tile 17 -> depth 3 at n=136


def _operands(n=N, seed=3):
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)))
    return a, b


def _site_modes(plan):
    return {name: site.mode for name, site in plan._sites.items()}


class TestPrecedence:
    def test_env_var_attaches_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_PLAN_STORE", str(path))
        s = GemmSession()
        assert s.plan_store is not None
        assert s.plan_store.path == path
        s.close()

    def test_explicit_arg_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "env.json"))
        s = GemmSession(plan_store=tmp_path / "arg.json")
        assert s.plan_store.path == tmp_path / "arg.json"
        s.close()

    def test_explicit_none_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "env.json"))
        s = GemmSession(plan_store=None)
        assert s.plan_store is None
        s.close()

    def test_no_env_no_arg_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
        s = GemmSession()
        assert s.plan_store is None
        s.close()

    def test_shared_store_instance(self, tmp_path):
        shared = PlanStore(tmp_path / "shared.json")
        s1 = GemmSession(plan_store=shared)
        s2 = GemmSession(plan_store=shared)
        assert s1.plan_store is shared and s2.plan_store is shared
        s1.close()
        s2.close()


class TestKeyResolution:
    def test_store_decision_drives_policy(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3, memory="two_temp",
        ))
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)
            assert [t.tile for t in plan.tilings] == [12, 12, 12]
            assert plan.tilings[0].depth == 3
            assert plan.key.memory == "two_temp"
            st = s.stats()
            assert st.store_hits == 1 and st.store_misses == 0

    def test_explicit_caller_args_beat_store(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3, memory="two_temp",
        ))
        with GemmSession(plan_store=store) as s:
            # Explicit policy: the store is not even consulted.
            plan = s.plan(96, 96, 96, policy=48)
            assert plan.tilings[0].tile == 48
            assert s.stats().store_hits == 0
            # Policy from store, but explicit memory wins over its field.
            plan = s.plan(96, 96, 96, memory="classic")
            assert plan.tilings[0].tile == 12
            assert plan.key.memory == "classic"

    def test_miss_counts_and_default_fallback(self, tmp_path):
        with GemmSession(plan_store=tmp_path / "p.json") as s:
            plan = s.plan(96, 96, 96)
            st = s.stats()
            assert st.store_misses == 1 and st.store_hits == 0
            # Heuristic default applies on a miss.
            assert plan.tilings == s.default_policy.plan(96, 96, 96)

    def test_store_lookup_trace_event_and_schema(self, tmp_path):
        assert "store_lookup" in EVENT_KINDS
        assert "autotune_trial" in EVENT_KINDS
        store = PlanStore(tmp_path / "p.json")
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3,
        ))
        with GemmSession(plan_store=store, trace=True) as s:
            s.plan(96, 96, 96)
            s.plan(64, 64, 64)
            doc = s.trace.dump()
        validate_trace(doc)
        lookups = [e for e in doc["events"] if e["kind"] == "store_lookup"]
        assert [e["data"]["hit"] for e in lookups] == [True, False]

    def test_unusable_record_falls_back(self, tmp_path):
        store = PlanStore(tmp_path / "p.json")
        # tile * 2^depth < n: not a plannable decision for this shape.
        store.record(96, 96, 96, StoredDecision(
            tile_m=2, tile_k=2, tile_n=2, depth=1,
        ))
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)  # must not raise
            assert plan.tilings == s.default_policy.plan(96, 96, 96)


    def test_old_schedule_field_loads_and_is_dropped_on_flush(self, tmp_path):
        # Stores written while the task-graph scheduler existed carry a
        # "schedule" decision field: the rest of the decision still
        # applies, and the next flush rewrites the entry without it.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "schema": STORE_SCHEMA, "version": STORE_VERSION,
            "entries": {shape_key(96, 96, 96): {
                "tile_m": 12, "tile_k": 12, "tile_n": 12, "depth": 3,
                "schedule": "tasks:1", "memory": "two_temp",
                "kernel": "blocked",
            }},
        }))
        store = PlanStore(path)
        a, b = _operands(96)
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)
            assert [t.tile for t in plan.tilings] == [12, 12, 12]
            assert plan.tilings[0].depth == 3
            assert plan.key.memory == "two_temp"
            assert plan.key.kernel is get_kernel("blocked")
            assert np.allclose(s.multiply(a, b), a @ b)
            assert s.stats().store_hits >= 1
        store.record(64, 64, 64, StoredDecision(
            tile_m=16, tile_k=16, tile_n=16, depth=2,
        ))
        assert store.flush() == path
        entries = json.loads(path.read_text())["entries"]
        old = entries[shape_key(96, 96, 96)]
        assert "schedule" not in old
        assert old["memory"] == "two_temp" and old["kernel"] == "blocked"
        assert shape_key(64, 64, 64) in entries


class TestCalibrationPersistence:
    def test_verdict_survives_eviction(self, tmp_path):
        """The PR's regression test: eviction no longer re-trials."""
        a, b = _operands()
        store = PlanStore(tmp_path / "p.json")
        with GemmSession(
            capacity=1, plan_store=store, fused_pack=False,
        ) as s:
            s.multiply(a, b, policy=POLICY)
            s.multiply(a, b, policy=POLICY)  # trial run -> verdicts decided
            modes = set(_site_modes(s.plan(N, N, N, policy=POLICY)).values())
            assert modes <= {"indexed", "loop"} and modes
            # Evict the plan, then recompile the same geometry.
            s.plan(64, 64, 64, policy=8)
            plan = s.plan(N, N, N, policy=POLICY)
            # Preseeded from the store: no site is back in baseline/trial.
            for mode in _site_modes(plan).values():
                assert mode == "indexed"
            # "loop" verdicts skip the site (and its table) entirely:
            # every surviving site is indexed, none needs a trial.

    def test_without_store_eviction_retrials(self, tmp_path):
        """The pre-store behaviour this PR fixes, kept as a contrast."""
        a, b = _operands()
        with GemmSession(capacity=1, plan_store=None, fused_pack=False) as s:
            s.multiply(a, b, policy=POLICY)
            s.multiply(a, b, policy=POLICY)
            s.plan(64, 64, 64, policy=8)  # evict
            plan = s.plan(N, N, N, policy=POLICY)
            for mode in _site_modes(plan).values():
                assert mode == "baseline"  # recalibration from scratch

    def test_verdict_survives_sessions(self, tmp_path):
        a, b = _operands()
        path = tmp_path / "p.json"
        with GemmSession(plan_store=path, fused_pack=False) as s:
            s.multiply(a, b, policy=POLICY)
            s.multiply(a, b, policy=POLICY)
            decided = _site_modes(s.plan(N, N, N, policy=POLICY))
        # A fresh process-like session against the flushed store.
        with GemmSession(plan_store=path, fused_pack=False) as warm:
            plan = warm.plan(N, N, N, policy=POLICY)
            warm_modes = _site_modes(plan)
            for name, mode in warm_modes.items():
                assert mode == "indexed"
                assert decided.get(name) == "indexed"
            # Sites decided "loop" were dropped: no table was even built.
            loop_names = {
                n_ for n_, m_ in decided.items() if m_ == "loop"
            }
            assert loop_names.isdisjoint(warm_modes)

    def test_calibration_key_is_stable(self):
        assert calibration_key(136, 136, 17, 17, 3) == (
            "136x136:t17x17:d3:float64"
        )
        assert calibration_key(136, 136, 17, 17, 3, dtype="float32") != (
            calibration_key(136, 136, 17, 17, 3)
        )


class TestArtifacts:
    def test_accumulate_cap_applied_from_store(self, tmp_path):
        original = get_accumulate_cap()
        try:
            store = PlanStore(tmp_path / "p.json")
            store.record(96, 96, 96, StoredDecision(
                tile_m=12, tile_k=12, tile_n=12, depth=3,
            ))
            store.set_artifact("accumulate_cap", 1 << 18)
            with GemmSession(plan_store=store) as s:
                s.plan(96, 96, 96)  # first consult applies the artifact
                assert get_accumulate_cap() == 1 << 18
        finally:
            set_accumulate_cap(original)

    def test_explicit_cap_outranks_store_artifact(self, tmp_path):
        original = get_accumulate_cap()
        try:
            store = PlanStore(tmp_path / "p.json")
            store.set_artifact("accumulate_cap", 1 << 18)
            with GemmSession(
                plan_store=store, accumulate_cap=1 << 19
            ) as s:
                s.plan(96, 96, 96)
                assert get_accumulate_cap() == 1 << 19
        finally:
            set_accumulate_cap(original)


class TestClose:
    def test_close_flushes_store(self, tmp_path):
        path = tmp_path / "p.json"
        store = PlanStore(path)
        s = GemmSession(plan_store=store)
        store.record(96, 96, 96, StoredDecision(
            tile_m=12, tile_k=12, tile_n=12, depth=3,
        ))
        assert not path.exists()
        s.close()
        assert path.exists()
        assert PlanStore(path).lookup(96, 96, 96) is not None

    def test_stats_fields_default_zero(self):
        with GemmSession(plan_store=None) as s:
            st = s.stats()
            assert st.store_hits == 0
            assert st.store_misses == 0
            assert st.autotune_seconds == 0.0
