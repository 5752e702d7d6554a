"""Tests for the stacked-Morton batched execution path.

The central invariant: routing same-geometry problems through one stacked
:class:`CompiledPlan` recursion over ``(B, ...)`` stacks is
**bit-identical** to executing each item through its per-item plan — the
recursion code and addition order are literally shared, only the leading
batch axis differs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BatchItemError
from repro.engine import (
    BATCH_CAP_MAX,
    CompiledPlan,
    GemmSession,
    batch_size_class,
)
from repro.errors import PlanError

from ..conftest import assert_gemm_close


@pytest.fixture
def session() -> GemmSession:
    return GemmSession()


def _pairs(rng, n, count, dtype=np.float64):
    return [
        (
            rng.standard_normal((n, n)).astype(dtype),
            rng.standard_normal((n, n)).astype(dtype),
        )
        for _ in range(count)
    ]


def _reference_outputs(pairs, **kwargs):
    """Per-item results through a fresh session (the non-batched truth)."""
    with GemmSession() as ref:
        return [ref.multiply(a, b, **kwargs) for a, b in pairs]


class TestBatchSizeClass:
    def test_powers_of_two(self):
        assert batch_size_class(1) == 1
        assert batch_size_class(2) == 2
        assert batch_size_class(3) == 4
        assert batch_size_class(7) == 8
        assert batch_size_class(8) == 8
        assert batch_size_class(9) == 16

    def test_capped(self):
        assert batch_size_class(BATCH_CAP_MAX) == BATCH_CAP_MAX
        assert batch_size_class(BATCH_CAP_MAX + 1) == BATCH_CAP_MAX
        assert batch_size_class(10_000) == BATCH_CAP_MAX

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            batch_size_class(0)


class TestBitIdentity:
    """Batched results must equal per-item results bit for bit."""

    @pytest.mark.parametrize("n", [66, 96])
    @pytest.mark.parametrize("memory", ["classic", "two_temp"])
    @pytest.mark.parametrize("schedule", [None, "sequential"])
    @pytest.mark.parametrize("count", [1, 2, 7, 32])
    def test_full_grid(self, rng, n, memory, schedule, count):
        pairs = _pairs(rng, n, count)
        refs = _reference_outputs(pairs, memory=memory, schedule=schedule)
        with GemmSession() as s:
            outs = s.multiply_many(pairs, memory=memory, schedule=schedule)
            stats = s.stats()
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)
        if count > 1:
            assert stats.batched_executes >= 1
            assert stats.batch_items == count
            assert stats.batch_fallbacks == 0

    @pytest.mark.parametrize(
        "memory,schedule", [("classic", None), ("two_temp", "sequential")]
    )
    def test_large_geometry(self, rng, memory, schedule):
        pairs = _pairs(rng, 513, 2)
        refs = _reference_outputs(pairs, memory=memory, schedule=schedule)
        with GemmSession() as s:
            outs = s.multiply_many(pairs, memory=memory, schedule=schedule)
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)

    def test_oversized_batch_chunks(self, rng):
        """More items than BATCH_CAP_MAX run in chunks, still bit-identical."""
        count = BATCH_CAP_MAX + 3
        pairs = _pairs(rng, 40, count)
        refs = _reference_outputs(pairs)
        with GemmSession() as s:
            outs = s.multiply_many(pairs)
            stats = s.stats()
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)
        assert stats.batched_executes == 2
        assert stats.batch_items == count

    def test_one_item_last_chunk_runs_stacked(self, rng):
        """A group of 32k+1 items ends in a one-item chunk, which still
        runs on a (one-row) stacked plan, not the single-item plan."""
        count = BATCH_CAP_MAX + 1
        pairs = _pairs(rng, 40, count)
        refs = _reference_outputs(pairs)
        with GemmSession() as s:
            outs = s.multiply_many(pairs)
            stats = s.stats()
            caps = sorted(cap for _, cap in s._plans)
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)
        assert stats.batched_executes == 2
        assert stats.batch_items == count
        assert caps == [1, BATCH_CAP_MAX]

    def test_strassen_variant_batches(self, rng):
        pairs = _pairs(rng, 64, 3)
        refs = _reference_outputs(pairs, variant="strassen")
        with GemmSession() as s:
            outs = s.multiply_many(pairs, variant="strassen")
            assert s.stats().batched_executes == 1
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)


class TestRouting:
    def test_singleton_uses_per_item_path(self, rng, session):
        (a, b), = _pairs(rng, 64, 1)
        session.multiply_many([(a, b)])
        s = session.stats()
        assert s.batched_executes == 0
        assert s.batch_fallbacks == 0
        assert s.executes == 1

    def test_ip_overwrite_group_falls_back(self, rng, session):
        pairs = _pairs(rng, 64, 3)
        refs = _reference_outputs(pairs, memory="ip_overwrite")
        outs = session.multiply_many(pairs, memory="ip_overwrite")
        s = session.stats()
        assert s.batched_executes == 0
        assert s.batch_fallbacks == 1
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)

    def test_panelled_geometry_falls_back(self, rng, session):
        # Highly rectangular: no well-behaved tiling, Figure-4 panels.
        a = rng.standard_normal((32, 2048))
        b = rng.standard_normal((2048, 32))
        outs = session.multiply_many([(a, b), (a, b)])
        s = session.stats()
        assert s.batched_executes == 0
        assert s.batch_fallbacks == 1
        assert_gemm_close(outs[0], a @ b)
        assert np.array_equal(outs[0], outs[1])

    def test_batch_false_forces_legacy_path(self, rng, session):
        pairs = _pairs(rng, 64, 4)
        outs = session.multiply_many(pairs, batch=False)
        s = session.stats()
        assert s.batched_executes == 0
        assert s.batch_fallbacks == 0
        for (a, b), out in zip(pairs, outs):
            assert_gemm_close(out, a @ b)

    def test_bad_batch_value_rejected(self, session):
        with pytest.raises(ValueError, match="batch"):
            session.multiply_many([], batch="always")

    def test_mixed_geometry_routing(self, rng, session):
        items, refs = [], []
        for n in (64, 96, 64, 40, 96, 64):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            items.append((a, b))
            refs.append(a @ b)
        outs = session.multiply_many(items)
        s = session.stats()
        # 64 appears 3x and 96 twice -> two batched groups; 40 is a singleton.
        assert s.batched_executes == 2
        assert s.batch_items == 5
        for out, ref in zip(outs, refs):
            assert_gemm_close(out, ref)

    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([40, 64, 66, 96]), min_size=1, max_size=9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_ragged_groups_match_per_item(self, sizes, seed):
        """Any mix of geometries routes every item to a correct result."""
        rng = np.random.default_rng(seed)
        items = [
            (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
            for n in sizes
        ]
        with GemmSession() as s, GemmSession() as ref:
            outs = s.multiply_many(items)
            stats = s.stats()
            assert stats.executes == len(items)
            assert stats.batch_items + (stats.executes - stats.batch_items) \
                == len(items)
            for (a, b), out in zip(items, outs):
                assert np.array_equal(out, ref.multiply(a, b))


class TestMultiplyManyContract:
    def test_failing_item_reports_its_index(self, rng, session):
        good = _pairs(rng, 40, 1)[0]
        bad = (rng.standard_normal((40, 40)), rng.standard_normal((3, 5)))
        with pytest.raises(BatchItemError) as excinfo:
            session.multiply_many([good, bad, good])
        assert excinfo.value.index == 1
        assert excinfo.value.__cause__ is not None

    def test_failing_item_index_on_thread_pool_path(self, rng, session):
        # Force the legacy path; the error must still carry the index.
        good = _pairs(rng, 40, 1)[0]
        bad_c = (
            rng.standard_normal((40, 40)),
            rng.standard_normal((40, 40)),
            rng.standard_normal((7, 7)),
        )
        with pytest.raises(BatchItemError) as excinfo:
            session.multiply_many([good, good, bad_c], batch=False)
        assert excinfo.value.index == 2

    def test_malformed_item_tuple(self, rng, session):
        with pytest.raises(BatchItemError) as excinfo:
            session.multiply_many([(rng.standard_normal((8, 8)),)])
        assert excinfo.value.index == 0

    def test_unknown_option_rejected_with_index(self, rng, session):
        a, b = _pairs(rng, 40, 1)[0]
        with pytest.raises(BatchItemError) as excinfo:
            session.multiply_many([{"a": a, "b": b, "polcy": 32}])
        assert excinfo.value.index == 0
        assert "polcy" in str(excinfo.value)

    def test_dict_items_with_per_item_overrides(self, rng, session):
        a, b = _pairs(rng, 64, 1)[0]
        c0 = rng.standard_normal((64, 64))
        c = c0.copy()
        outs = session.multiply_many(
            [
                {"a": a, "b": b},
                {"a": a, "b": b, "memory": "two_temp"},
                {"a": a, "b": b, "c": c, "alpha": 2.0, "beta": 1.0},
                {"a": a.T.copy(), "b": b, "op_a": "t"},
            ]
        )
        ref = a @ b
        assert_gemm_close(outs[0], ref)
        # Memory schedules are bit-identical, so items 0 and 1 share bits.
        assert np.array_equal(outs[0], outs[1])
        assert outs[2] is c
        assert_gemm_close(c, 2.0 * ref + c0)
        # The transposed item consumes A through a Morton quadrant-swap
        # relabel (zero-copy), so its leaf kernels see transposed strides;
        # BLAS results are not bitwise layout-invariant, hence tolerance
        # equality rather than bit equality against the plain item.
        assert_gemm_close(outs[3], outs[0])

    def test_per_item_policy_override_splits_groups(self, rng, session):
        pairs = _pairs(rng, 96, 4)
        items = [
            {"a": a, "b": b, "policy": 32 if i % 2 else 48}
            for i, (a, b) in enumerate(pairs)
        ]
        outs = session.multiply_many(items)
        s = session.stats()
        assert s.batched_executes == 2  # one stacked group per policy
        for (a, b), out in zip(pairs, outs):
            assert_gemm_close(out, a @ b)

    def test_in_place_c_through_batched_path(self, rng, session):
        a, b = _pairs(rng, 64, 1)[0]
        c0s = [rng.standard_normal((64, 64)) for _ in range(4)]
        cs = [c.copy() for c in c0s]
        outs = session.multiply_many(
            [(a, b, c) for c in cs], alpha=1.0, beta=1.0
        )
        assert session.stats().batched_executes == 1
        for out, c, c0 in zip(outs, cs, c0s):
            assert out is c
            assert_gemm_close(c, a @ b + c0)

    def test_kwargs_still_apply_to_all_items(self, rng, session):
        pairs = _pairs(rng, 64, 3)
        outs = session.multiply_many(pairs, alpha=3.0)
        for (a, b), out in zip(pairs, outs):
            assert_gemm_close(out, 3.0 * (a @ b))


def _poisoned_items(rng, n, count, poison_at):
    """``(a, b, c)`` items where item ``poison_at`` carries a read-only c.

    A read-only output operand passes spec-time validation (creating the
    :class:`GemmProblem` never writes ``c``) and fails only at the
    per-item scaling step (``c *= beta`` / ``c += d``) — an
    *execution-time* failure attributable to exactly one item, on both
    the stacked and the fallback path.
    """
    items, c0s = [], []
    for i in range(count):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        c0s.append(c.copy())
        if i == poison_at:
            c.flags.writeable = False
        items.append((a, b, c))
    return items, c0s


class TestExecutionFailureIndex:
    """Execution-time per-item failures must report the *input* index.

    Regression tests: the stacked path used to call ``execute_batch``
    bare, so a mid-batch failure surfaced with the chunk-local position
    (or no index at all) instead of the caller's item number.
    """

    @pytest.mark.parametrize("batch", ["auto", False])
    @pytest.mark.parametrize("count", [2, 7, 32])
    def test_index_maps_back_to_input_position(self, rng, count, batch):
        poison_at = count // 2
        items, _ = _poisoned_items(rng, 64, count, poison_at)
        with GemmSession() as s:
            with pytest.raises(BatchItemError) as excinfo:
                s.multiply_many(items, beta=1.0, batch=batch)
            if batch == "auto":
                assert s.stats().batched_executes == 1
        assert excinfo.value.index == poison_at
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("batch", ["auto", False])
    def test_smallest_failing_index_wins(self, rng, batch):
        items, _ = _poisoned_items(rng, 64, 8, 5)
        a, b, c = items[2]
        c = c.copy()
        c.flags.writeable = False
        items[2] = (a, b, c)
        with GemmSession() as s, pytest.raises(BatchItemError) as excinfo:
            s.multiply_many(items, beta=1.0, batch=batch)
        assert excinfo.value.index == 2

    @pytest.mark.parametrize("batch", ["auto", False])
    def test_good_items_still_complete(self, rng, batch):
        """A failing item must not abandon its siblings mid-batch."""
        items, c0s = _poisoned_items(rng, 64, 5, 1)
        with GemmSession() as s, pytest.raises(BatchItemError):
            s.multiply_many(items, beta=1.0, batch=batch)
        for i, ((a, b, c), c0) in enumerate(zip(items, c0s)):
            if i == 1:
                assert np.array_equal(c, c0)  # read-only: untouched
            else:
                assert_gemm_close(c, a @ b + c0)

    def test_index_survives_chunking(self, rng):
        """Input numbering holds across BATCH_CAP_MAX-sized chunks."""
        count = BATCH_CAP_MAX + 3
        poison_at = BATCH_CAP_MAX + 1  # second chunk, chunk position 1
        items, c0s = _poisoned_items(rng, 40, count, poison_at)
        with GemmSession() as s:
            with pytest.raises(BatchItemError) as excinfo:
                s.multiply_many(items, beta=1.0)
            assert s.stats().batched_executes == 2  # both chunks ran
        assert excinfo.value.index == poison_at
        a, b, c = items[0]
        assert_gemm_close(c, a @ b + c0s[0])  # first chunk drained

    def test_other_groups_drain_after_a_group_fails(self, rng):
        items64, c064 = _poisoned_items(rng, 64, 3, 0)
        items96, c096 = _poisoned_items(rng, 96, 3, -1)  # no poison
        with GemmSession() as s, pytest.raises(BatchItemError) as excinfo:
            s.multiply_many(items64 + items96, beta=1.0)
        assert excinfo.value.index == 0
        for (a, b, c), c0 in zip(items96, c096):
            assert_gemm_close(c, a @ b + c0)

    @pytest.mark.parametrize("batch", ["auto", False])
    def test_plan_reusable_after_failure(self, rng, batch):
        """Pooled stacks stay quiescent: the next batch is bit-exact."""
        items, _ = _poisoned_items(rng, 64, 4, 2)
        with GemmSession() as s:
            with pytest.raises(BatchItemError):
                s.multiply_many(items, beta=1.0, batch=batch)
            pairs = _pairs(rng, 64, 4)
            refs = _reference_outputs(pairs)
            outs = s.multiply_many(pairs, batch=batch)
        for out, ref in zip(outs, refs):
            assert np.array_equal(out, ref)

    def test_execute_batch_maps_indices_argument(self, rng, session):
        """A stacked plan honours the caller's index mapping directly."""
        import repro

        pairs = _pairs(rng, 64, 3)
        session.multiply_many(pairs)  # compile the (key, 4) batch plan
        ((_, bp),) = session._plans.items()
        bad_c = rng.standard_normal((64, 64))
        bad_c.flags.writeable = False
        probs = [
            repro.GemmProblem.create(
                a, b,
                beta=1.0 if i == 1 else 0.0,
                c=bad_c if i == 1 else None,
            )
            for i, (a, b) in enumerate(pairs)
        ]
        cs = [None, bad_c, None]
        with pytest.raises(BatchItemError) as excinfo:
            bp.execute_batch(probs, cs, indices=[10, 20, 30])
        assert excinfo.value.index == 20


class TestDtype:
    def test_float32_multiply(self, rng, session):
        a, b = _pairs(rng, 96, 1, dtype=np.float32)[0]
        out = session.multiply(a, b, dtype=np.float32)
        assert out.dtype == np.float32
        # float32 tolerance: ~eps * recursion growth.
        assert_gemm_close(
            out.astype(np.float64),
            (a.astype(np.float64) @ b.astype(np.float64)),
            tol=1e-3,
        )

    def test_dtype_in_plan_key_separates_plans(self, rng, session):
        a, b = _pairs(rng, 64, 1)[0]
        session.multiply(a, b)
        session.multiply(a, b, dtype=np.float32)
        s = session.stats()
        assert s.plan_misses == 2 and s.plans_cached == 2

    def test_batched_float32_bit_identical_to_per_item(self, rng):
        pairs = _pairs(rng, 96, 5, dtype=np.float32)
        refs = _reference_outputs(pairs, dtype=np.float32)
        with GemmSession() as s:
            outs = s.multiply_many(pairs, dtype=np.float32)
            assert s.stats().batched_executes == 1
        for out, ref in zip(outs, refs):
            assert out.dtype == np.float32
            assert np.array_equal(out, ref)

    def test_mixed_input_dtypes_cast_on_entry(self, rng, session):
        a = rng.standard_normal((40, 40)).astype(np.float32)
        b = rng.standard_normal((40, 40))
        out = session.multiply(a, b)  # default float64 compute
        assert out.dtype == np.float64
        assert_gemm_close(out, a.astype(np.float64) @ b)

    def test_unsupported_dtype_rejected(self, rng, session):
        a, b = _pairs(rng, 16, 1)[0]
        with pytest.raises(ValueError, match="dtype"):
            session.multiply(a, b, dtype=np.int32)


class TestBatchPlanCache:
    def test_same_size_class_reuses_plan(self, rng, session):
        for _ in range(3):
            session.multiply_many(_pairs(rng, 64, 5))
        s = session.stats()
        assert s.plan_misses == 1  # one stacked-plan compile
        assert s.plan_hits == 2
        assert s.plans_cached == 1
        assert s.batched_executes == 3

    def test_size_classes_get_distinct_plans(self, rng, session):
        session.multiply_many(_pairs(rng, 64, 2))   # class 2
        session.multiply_many(_pairs(rng, 64, 7))   # class 8
        s = session.stats()
        assert s.plan_misses == 2 and s.plans_cached == 2

    def test_eviction_releases_stacked_buffers(self, rng):
        with GemmSession(capacity=1) as s:
            s.multiply_many(_pairs(rng, 96, 4))
            pooled_large = s.stats().bytes_pooled
            s.multiply_many(_pairs(rng, 40, 4))
            stats = s.stats()
        assert stats.plan_evictions == 1
        # The 96^2 stacks are gone; only the smaller plan's bytes remain.
        assert 0 < stats.bytes_pooled < pooled_large
        assert stats.plans_cached == 1

    def test_scratch_accounting_survives_eviction(self, rng):
        with GemmSession(capacity=1) as s:
            s.multiply_many(_pairs(rng, 96, 4))
            s.multiply_many(_pairs(rng, 66, 4))
            stats = s.stats()
        assert stats.peak_scratch_bytes >= stats.scratch_bytes_allocated / 2
        assert stats.scratch_bytes_allocated > 0

    def test_clear_drops_batch_plans(self, rng, session):
        session.multiply_many(_pairs(rng, 64, 4))
        assert session.stats().plans_cached == 1
        session.clear()
        assert session.stats().plans_cached == 0
        assert session.stats().bytes_pooled == 0

    def test_batch_plan_rejects_ip_overwrite(self, session):
        key = session.plan(64, 64, 64, memory="ip_overwrite").key
        with pytest.raises(PlanError, match="ip_overwrite"):
            CompiledPlan(key, session, cap=4)

    def test_batch_plan_rejects_panelled_geometry(self, session):
        key = session.plan(32, 2048, 32).key
        with pytest.raises(PlanError, match="panelled"):
            CompiledPlan(key, session, cap=4)

    def test_capacity_guard(self, rng, session):
        pairs = _pairs(rng, 64, 3)
        session.multiply_many(pairs)
        ((_, bp),) = session._plans.items()
        probs = [
            __import__("repro").GemmProblem.create(a, b) for a, b in pairs
        ]
        with pytest.raises(PlanError, match="capacity"):
            bp.execute_batch(probs * 2, [None] * 6)
        # A single-item plan has no batch axis, and a stacked plan runs
        # no single item.
        single = session.plan(64, 64, 64)
        assert single.cap is None
        with pytest.raises(PlanError, match="no batch axis"):
            single.execute_batch(probs[:1], [None])
        with pytest.raises(PlanError, match="execute_batch"):
            bp.execute_problem(probs[0])

    def test_single_and_stacked_plans_share_one_lru(self, rng):
        # capacity bounds every cached plan together: compiling the
        # stacked plan evicts the single-item one.
        (a, b), = _pairs(rng, 64, 1)
        with GemmSession(capacity=1) as s:
            s.multiply(a, b)
            s.multiply_many(_pairs(rng, 64, 2))
            stats = s.stats()
            ((_, cap),) = s._plans
        assert cap == 2
        assert stats.plans_cached == 1
        assert stats.plan_evictions == 1


class TestBatchStats:
    def test_convert_savings_counter_moves(self, rng, session):
        # The stacked path records its conversion time like any execute.
        for _ in range(4):
            session.multiply_many(_pairs(rng, 96, 8))
        s = session.stats()
        assert s.batched_executes == 4
        assert s.batch_items == 32
        assert s.timings.to_morton > 0.0 and s.timings.from_morton > 0.0
        assert 0.0 < s.convert_fraction < 1.0

    def test_executes_counts_batch_items(self, rng, session):
        session.multiply_many(_pairs(rng, 64, 6))
        s = session.stats()
        assert s.executes == 6
        assert s.batch_items == 6

    def test_repr_mentions_batches(self, rng, session):
        session.multiply_many(_pairs(rng, 64, 2))
        assert "batched=1" in repr(session)
