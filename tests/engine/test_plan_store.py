"""Engine x plan-store integration: precedence, key resolution, artifacts,
and documents written by older builds."""

from __future__ import annotations

import json

import numpy as np

from repro.blas.kernels import get_accumulate_cap, get_kernel, set_accumulate_cap
from repro.engine.session import GemmSession
from repro.observe.schema import EVENT_KINDS, validate_trace
from repro.tune.store import (
    STORE_SCHEMA, STORE_VERSION, PlanStore, StoredDecision, shape_key,
)

def _operands(n, seed=3):
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)))
    return a, b


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

    def test_fused_pack_era_store_loads_and_flushes_current_form(
        self, tmp_path,
    ):
        # Older stores keyed each entry by fused-packing mode and kept a
        # "calibrations" section of conversion-site verdicts.  The
        # entries still apply (the fp=True twin, the old default, wins
        # over its fp=False twin unless it is malformed); the section is
        # ignored; and a flush rewrites the document with neither.
        path = tmp_path / "p.json"
        old_key = "96x96x96:float64:winograd"
        path.write_text(json.dumps({
            "schema": STORE_SCHEMA, "version": STORE_VERSION,
            "entries": {
                old_key + ":fp=False": {
                    "tile_m": 24, "tile_k": 24, "tile_n": 24, "depth": 2,
                    "memory": "classic",
                },
                old_key + ":fp=True": {
                    "tile_m": 12, "tile_k": 12, "tile_n": 12, "depth": 3,
                    "memory": "two_temp", "kernel": "blocked",
                },
                "64x64x64:float64:winograd:fp=False": {
                    "tile_m": 16, "tile_k": 16, "tile_n": 16, "depth": 2,
                },
                "128x128x128:float64:winograd:fp=True": {"tile_m": "x"},
                "128x128x128:float64:winograd:fp=False": {
                    "tile_m": 32, "tile_k": 32, "tile_n": 32, "depth": 2,
                },
            },
            "calibrations": {
                "96x96:t12x12:d3:float64": {"mode": "indexed",
                                            "baseline": 0.001},
            },
            "artifacts": {"accumulate_cap": get_accumulate_cap()},
        }))
        store = PlanStore(path)
        a, b = _operands(96)
        with GemmSession(plan_store=store) as s:
            plan = s.plan(96, 96, 96)
            assert [t.tile for t in plan.tilings] == [12, 12, 12]
            assert plan.key.memory == "two_temp"
            assert plan.key.kernel is get_kernel("blocked")
            assert np.allclose(s.multiply(a, b), a @ b)
            assert s.plan(64, 64, 64).tilings[0].tile == 16
            assert s.plan(128, 128, 128).tilings[0].tile == 32
            assert s.stats().store_misses == 0
        doc = json.loads(path.read_text())
        assert "calibrations" not in doc
        assert sorted(doc["entries"]) == [
            shape_key(128, 128, 128), shape_key(64, 64, 64),
            shape_key(96, 96, 96),
        ]
        assert doc["entries"][shape_key(96, 96, 96)]["tile_m"] == 12
        assert doc["entries"][shape_key(128, 128, 128)]["tile_m"] == 32
        assert not PlanStore(path).dirty


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
