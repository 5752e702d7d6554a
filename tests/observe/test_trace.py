"""Unit and integration tests for the structured event tracer."""

from __future__ import annotations

import json
import threading

import pytest

from repro.engine import GemmSession
from repro.observe import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    Tracer,
    validate_trace,
)


class TestRingBuffer:
    def test_capacity_bounds_events_and_counts_drops(self):
        tr = Tracer(capacity=4, enabled=True)
        for i in range(7):
            tr.emit("add", label=f"e{i}")
        events = tr.events()
        assert len(events) == 4
        assert tr.dropped == 3
        # Oldest dropped: the window holds the most recent events.
        assert [ev.label for ev in events] == ["e3", "e4", "e5", "e6"]
        assert [ev.seq for ev in events] == [3, 4, 5, 6]

    def test_seq_monotonic_and_timestamps_ordered(self):
        tr = Tracer(enabled=True)
        for _ in range(5):
            tr.emit("convert", label="x")
        events = tr.events()
        assert [ev.seq for ev in events] == list(range(5))
        assert all(e0.t <= e1.t for e0, e1 in zip(events, events[1:]))
        assert all(ev.thread == threading.get_ident() for ev in events)

    def test_clear_resets_counters(self):
        tr = Tracer(capacity=2, enabled=True)
        for _ in range(5):
            tr.emit("add")
        tr.clear()
        assert tr.events() == [] and tr.dropped == 0
        tr.emit("add")
        assert tr.events()[0].seq == 0

    def test_unknown_kind_rejected(self):
        tr = Tracer(enabled=True)
        with pytest.raises(ValueError, match="unknown trace event kind"):
            tr.emit("bogus")

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_disabled_by_default(self):
        assert Tracer().enabled is False
        assert Tracer().enable().enabled is True


class TestCallbacks:
    def test_on_event_fires_and_unsubscribes(self):
        tr = Tracer(enabled=True)
        seen = []
        unsubscribe = tr.on_event(seen.append)
        tr.emit("add", label="one")
        assert len(seen) == 1 and seen[0].label == "one"
        unsubscribe()
        unsubscribe()  # idempotent
        tr.emit("add", label="two")
        assert len(seen) == 1

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            Tracer().on_event("not-a-function")


class TestDump:
    def test_dump_validates_against_schema(self):
        tr = Tracer(capacity=8, enabled=True)
        for kind in ("plan_compile", "convert", "exec", "leaf"):
            tr.emit(kind, label=kind, seconds=0.5, worker=0)
        doc = tr.dump()
        assert validate_trace(doc) is doc
        assert doc["version"] == TRACE_SCHEMA_VERSION
        assert doc["capacity"] == 8 and doc["dropped"] == 0
        # The contract is plain JSON: a round trip must be lossless.
        assert json.loads(json.dumps(doc)) == doc

    def test_tampered_document_rejected_with_path(self):
        tr = Tracer(enabled=True)
        tr.emit("add")
        doc = tr.dump()
        doc["events"][0]["kind"] = "bogus"
        with pytest.raises(ValueError, match=r"events\[0\].kind"):
            validate_trace(doc)
        doc = tr.dump()
        del doc["capacity"]
        with pytest.raises(ValueError, match="capacity"):
            validate_trace(doc)

    def test_every_kind_is_schema_valid(self):
        tr = Tracer(capacity=len(EVENT_KINDS), enabled=True)
        for kind in EVENT_KINDS:
            tr.emit(kind, label=kind)
        validate_trace(tr.dump())


class TestSessionTracing:
    def test_disabled_by_default_emits_nothing(self, rng):
        with GemmSession() as s:
            assert s.trace.enabled is False
            s.multiply(
                rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
            )
            assert s.trace.events() == []

    def test_multiply_emits_compile_convert_exec(self, rng):
        a = rng.standard_normal((66, 66))
        b = rng.standard_normal((66, 66))
        with GemmSession(trace=True) as s:
            s.multiply(a, b)
            kinds = {ev.kind for ev in s.trace.events()}
            assert {"plan_compile", "convert", "add", "exec"} <= kinds
            assert kinds <= set(EVENT_KINDS)
            s.multiply(a, b)
            assert "plan_hit" in {ev.kind for ev in s.trace.events()}
            validate_trace(s.trace.dump())

    def test_eviction_emits_plan_evict(self, rng):
        with GemmSession(capacity=1, trace=True) as s:
            s.multiply(
                rng.standard_normal((40, 40)), rng.standard_normal((40, 40))
            )
            s.multiply(
                rng.standard_normal((50, 50)), rng.standard_normal((50, 50))
            )
            evicts = [
                ev for ev in s.trace.events() if ev.kind == "plan_evict"
            ]
        assert len(evicts) == 1
        assert evicts[0].label.startswith("40x40x40")

    def test_every_kind_has_an_emitter(self, rng, tmp_path):
        """One traced session reaches every kind in EVENT_KINDS, no other."""
        a = rng.standard_normal((66, 66))
        b = rng.standard_normal((66, 66))
        c = rng.standard_normal((66, 66))
        with GemmSession(capacity=1, trace=True, trace_capacity=1 << 16,
                         fused_pack="always",
                         plan_store=tmp_path / "plans.json") as s:
            # compile, store_lookup, convert, pack, add, leaf, exec
            s.multiply(a, b)
            s.multiply(a, b)  # plan_hit
            # relabel, accumulate; the new plan evicts the first
            s.multiply(a, b, c=c, beta=0.5, trans_a=True)
            s.autotune([66], rounds=1)  # autotune_trial
            kinds = {ev.kind for ev in s.trace.events()}
            assert s.trace.dropped == 0
            validate_trace(s.trace.dump())
        assert kinds == set(EVENT_KINDS)

    def test_batched_execution_traces_convert_and_exec(self, rng):
        pairs = [
            (rng.standard_normal((64, 64)), rng.standard_normal((64, 64)))
            for _ in range(4)
        ]
        with GemmSession(trace=True) as s:
            s.multiply_many(pairs)
            events = s.trace.events()
        execs = [ev for ev in events if ev.kind == "exec"]
        assert any(ev.data and ev.data.get("items") == 4 for ev in execs)
        convert_labels = {
            ev.label for ev in events if ev.kind == "convert"
        }
        # Fused packing converts each side separately (batch-a/batch-b);
        # the unfused path emits one combined batch-in event.
        assert "batch-out" in convert_labels
        assert (
            {"batch-a", "batch-b"} <= convert_labels
            or "batch-in" in convert_labels
        )

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_one_leaf_event_per_leaf_product(self, rng, depth):
        n = 8 << depth  # tile 8 at every depth
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        with GemmSession(policy=8, trace=True) as s:
            s.multiply(a, b)
            leaves = [ev for ev in s.trace.events() if ev.kind == "leaf"]
            validate_trace(s.trace.dump())
        assert len(leaves) == 7**depth

    def test_batched_leaf_event_per_stacked_product(self, rng):
        pairs = [
            (rng.standard_normal((16, 16)), rng.standard_normal((16, 16)))
            for _ in range(3)
        ]
        with GemmSession(policy=8, trace=True) as s:
            s.multiply_many(pairs)
            events = s.trace.events()
        assert any(ev.kind == "exec" and ev.data.get("items") == 3
                   for ev in events)
        leaves = [ev for ev in events if ev.kind == "leaf"]
        assert len(leaves) == 7  # depth 1: one stacked call per product
        assert all(ev.data["items"] == 3 for ev in leaves)

    def test_enable_mid_stream(self, rng):
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        with GemmSession() as s:
            s.multiply(a, b)
            assert s.trace.events() == []
            s.trace.enable()
            s.multiply(a, b)
            assert s.trace.events()
            s.trace.disable()
            n = len(s.trace.events())
            s.multiply(a, b)
            assert len(s.trace.events()) == n

    def test_trace_capacity_forwarded(self):
        s = GemmSession(trace=True, trace_capacity=3)
        assert s.trace.capacity == 3
