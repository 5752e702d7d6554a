"""Plan-store robustness: versioning, corruption tolerance, concurrency."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import pytest

from repro.core.truncation import TruncationPolicy
from repro.tune.store import (
    STORE_SCHEMA,
    STORE_VERSION,
    PlanStore,
    StoredDecision,
    shape_key,
)

DEC = StoredDecision(
    tile_m=33, tile_k=33, tile_n=33, depth=4, memory="two_temp",
    measured_seconds=0.05, source="autotune",
)


def test_roundtrip(tmp_path):
    path = tmp_path / "plans.json"
    store = PlanStore(path)
    store.record(513, 513, 513, DEC)
    store.record_calibration("513x513:t33x33:d4:float64", "indexed", 0.002)
    store.set_artifact("accumulate_cap", 1 << 20)
    assert store.dirty
    assert store.flush() == path

    fresh = PlanStore(path)
    dec = fresh.lookup(513, 513, 513)
    assert dec == DEC
    cal = fresh.lookup_calibration("513x513:t33x33:d4:float64")
    assert cal == {"mode": "indexed", "baseline": 0.002}
    assert fresh.get_artifact("accumulate_cap") == 1 << 20
    assert not fresh.dirty


def test_lookup_key_discriminates(tmp_path):
    store = PlanStore(tmp_path / "plans.json")
    store.record(513, 513, 513, DEC)
    assert store.lookup(513, 513, 513) == DEC
    assert store.lookup(513, 513, 514) is None
    assert store.lookup(513, 513, 513, dtype="float32") is None
    assert store.lookup(513, 513, 513, variant="strassen") is None
    assert store.lookup(513, 513, 513, fused_pack=False) is None


def test_decision_policy_pins_tiling():
    policy = DEC.policy(513, 513, 513)
    tilings = policy.plan(513, 513, 513)
    assert tilings is not None
    assert all(t.tile == 33 and t.depth == 4 for t in tilings)
    assert policy.truncation_point() == 33
    # Other dims fall back to dynamic selection, never the pin.
    other = policy.plan(256, 256, 256)
    assert other is None or all(t.n == 256 for t in other)


def test_missing_file_is_empty_without_warning(tmp_path):
    store = PlanStore(tmp_path / "absent.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.lookup(513, 513, 513) is None
        assert len(store) == 0


def test_garbage_file_warns_and_loads_empty(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text("{ this is not json")
    store = PlanStore(path)
    with pytest.warns(RuntimeWarning, match="not valid JSON"):
        assert store.lookup(513, 513, 513) is None
    # The store stays usable: record + flush recovers the file (flush
    # re-reads the still-corrupt file to merge, warning once more).
    store.record(513, 513, 513, DEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        store.flush()
    assert PlanStore(path).lookup(513, 513, 513) == DEC


def test_truncated_file_warns_and_loads_empty(tmp_path):
    path = tmp_path / "plans.json"
    good = PlanStore(path)
    good.record(513, 513, 513, DEC)
    good.flush()
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.warns(RuntimeWarning):
        assert PlanStore(path).lookup(513, 513, 513) is None


def test_schema_version_mismatch_ignored_silently(tmp_path):
    path = tmp_path / "plans.json"
    doc = {
        "schema": STORE_SCHEMA,
        "version": STORE_VERSION + 1,
        "entries": {shape_key(513, 513, 513): DEC.as_doc()},
    }
    path.write_text(json.dumps(doc))
    store = PlanStore(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.lookup(513, 513, 513) is None
    # A foreign schema marker is likewise not ours to parse.
    path.write_text(json.dumps({"schema": "other.thing", "version": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PlanStore(path).lookup(513, 513, 513) is None


def test_malformed_entry_skipped_not_fatal(tmp_path):
    path = tmp_path / "plans.json"
    doc = {
        "schema": STORE_SCHEMA,
        "version": STORE_VERSION,
        "entries": {
            shape_key(513, 513, 513): DEC.as_doc(),
            shape_key(100, 100, 100): {"tile_m": "not-a-number"},
        },
    }
    path.write_text(json.dumps(doc))
    store = PlanStore(path)
    assert store.lookup(513, 513, 513) == DEC
    assert store.lookup(100, 100, 100) is None


def test_flush_merges_with_concurrent_writer(tmp_path):
    """Two stores flushing disjoint entries both land in the file."""
    path = tmp_path / "plans.json"
    first = PlanStore(path)
    second = PlanStore(path)
    first.record(513, 513, 513, DEC)
    other = StoredDecision(tile_m=32, tile_k=32, tile_n=32, depth=5)
    second.record(1024, 1024, 1024, other)
    first.flush()
    second.flush()  # must merge over, not clobber, first's entry
    final = PlanStore(path)
    assert final.lookup(513, 513, 513) == DEC
    assert final.lookup(1024, 1024, 1024) == other


def test_flush_is_noop_when_clean(tmp_path):
    path = tmp_path / "plans.json"
    store = PlanStore(path)
    assert store.flush() is None
    assert not path.exists()


_WRITER = """
import sys
from repro.tune.store import PlanStore, StoredDecision
path, start = sys.argv[1], int(sys.argv[2])
store = PlanStore(path)
for i in range(start, start + 20):
    store.record(i, i, i, StoredDecision(
        tile_m=16, tile_k=16, tile_n=16, depth=1))
    store.flush()
print("ok")
"""


def test_concurrent_processes_do_not_corrupt(tmp_path):
    """Interleaved flushes from two processes lose nothing and stay valid."""
    path = tmp_path / "plans.json"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(path), str(start)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for start in (1000, 2000)
    ]
    for p in procs:
        out, err = p.communicate(timeout=60)
        assert p.returncode == 0, err.decode()
        assert out.decode().strip() == "ok"
    final = PlanStore(path)
    assert len(final) == 40
    for start in (1000, 2000):
        for i in range(start, start + 20):
            assert final.lookup(i, i, i) is not None


def test_resolve_precedence(tmp_path, monkeypatch):
    env_path = tmp_path / "env.json"
    arg_path = tmp_path / "arg.json"
    # No env, no arg: disabled.
    monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
    assert PlanStore.resolve() is None
    # Env set: used when the argument is omitted.
    monkeypatch.setenv("REPRO_PLAN_STORE", str(env_path))
    resolved = PlanStore.resolve()
    assert resolved is not None and resolved.path == env_path
    # Explicit argument wins over the environment.
    explicit = PlanStore.resolve(arg_path)
    assert explicit is not None and explicit.path == arg_path
    # Explicit None disables even with the env var set.
    assert PlanStore.resolve(None) is None
    # A PlanStore instance passes through unchanged.
    shared = PlanStore(arg_path)
    assert PlanStore.resolve(shared) is shared
    # Empty env value means disabled.
    monkeypatch.setenv("REPRO_PLAN_STORE", "   ")
    assert PlanStore.resolve() is None


def test_record_calibration_validates_mode(tmp_path):
    store = PlanStore(tmp_path / "plans.json")
    with pytest.raises(ValueError, match="indexed"):
        store.record_calibration("some-key", "baseline")


def test_pinned_policy_rejects_bad_geometry():
    with pytest.raises(Exception):
        TruncationPolicy.pinned_tiling(513, 513, 513, (1, 1, 1), 0)
