"""Tests for validation mode: ``GemmSession(debug=True)`` invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import GemmSession
from repro.errors import BatchItemError, InvariantError
from repro.observe import POISON


def _square(rng, n):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


class TestDebugIsTransparent:
    @pytest.mark.parametrize("memory", ["classic", "two_temp"])
    def test_bit_identical_to_plain_session(self, rng, memory):
        a, b = _square(rng, 65)  # padded geometry: pad checks are live
        with GemmSession() as plain, GemmSession(debug=True) as dbg:
            ref = plain.multiply(a, b, memory=memory)
            got = dbg.multiply(a, b, memory=memory)
            again = dbg.multiply(a, b, memory=memory)  # quiescence armed
        assert np.array_equal(got, ref)
        assert np.array_equal(again, ref)

    def test_bit_identical_on_batched_path(self, rng):
        pairs = [_square(rng, 64) for _ in range(4)]
        with GemmSession() as plain, GemmSession(debug=True) as dbg:
            refs = [plain.multiply(a, b) for a, b in pairs]
            outs = dbg.multiply_many(pairs)
            again = dbg.multiply_many(pairs)
            assert dbg.stats().batched_executes == 2
        for out, out2, ref in zip(outs, again, refs):
            assert np.array_equal(out, ref)
            assert np.array_equal(out2, ref)


class TestPadCorruption:
    def test_injected_pad_corruption_is_caught(self, rng):
        a, b = _square(rng, 65)  # 65 pads to 66 logical tiles
        with GemmSession(debug=True) as s:
            s.multiply(a, b)
            plan = s.plan(65, 65, 65)
            assert plan._a_mm.size > 65 * 65, "test needs a padded geometry"
            # Scribble over the whole operand buffer.  The next execution
            # rewrites only logical elements (zero_pad=False), so the pad
            # stays corrupted — exactly what debug mode must catch.
            plan._a_mm.buf.fill(1.0)
            with pytest.raises(InvariantError, match="pad"):
                s.multiply(a, b)

    def test_plain_session_misses_it(self, rng):
        # The control: without debug the same corruption goes unnoticed
        # (and silently wrongs the result) — that is why the mode exists.
        a, b = _square(rng, 65)
        with GemmSession() as s:
            ref = s.multiply(a, b)
            s.plan(65, 65, 65)._a_mm.buf.fill(1.0)
            got = s.multiply(a, b)  # no error raised...
        assert not np.array_equal(got, ref)  # ...but the bits are wrong


class TestWorkspaceQuiescence:
    def test_scribbled_workspace_is_caught(self, rng):
        a, b = _square(rng, 66)
        with GemmSession(debug=True) as s:
            s.multiply(a, b)
            plan = s.plan(66, 66, 66)
            assert plan._poisoned
            buf = next(plan._workspace._buffers())
            buf[buf.size // 2] = 0.0  # a single stray write
            with pytest.raises(InvariantError, match="poison"):
                s.multiply(a, b)

    def test_batch_workspace_scribble_is_caught(self, rng):
        pairs = [_square(rng, 64) for _ in range(4)]
        with GemmSession(debug=True) as s:
            s.multiply_many(pairs)
            ((_, bp),) = s._plans.items()
            assert bp._poisoned
            next(bp._workspace._buffers())[0] = 0.0
            with pytest.raises(BatchItemError) as excinfo:
                s.multiply_many(pairs)
        assert isinstance(excinfo.value.__cause__, InvariantError)

    def test_poison_value_is_finite(self):
        # NaN would defeat the == comparison poison_intact relies on.
        assert np.isfinite(POISON)


class TestFiniteGuard:
    def test_nonfinite_leaf_product_is_caught(self, rng):
        a, b = _square(rng, 66)
        a[0, 0] = np.inf
        with GemmSession(debug=True) as s:
            with pytest.raises(InvariantError, match="leaf"):
                s.multiply(a, b)

    def test_nan_operand_is_caught(self, rng):
        a, b = _square(rng, 66)
        b[10, 10] = np.nan
        with GemmSession(debug=True) as s:
            with pytest.raises(InvariantError, match="non-finite"):
                s.multiply(a, b)

    def test_plain_session_propagates_nan_silently(self, rng):
        a, b = _square(rng, 66)
        a[0, 0] = np.nan
        with GemmSession() as s:
            out = s.multiply(a, b)
        assert np.isnan(out).any()  # no diagnosis without debug


class TestDebugFixedAtConstruction:
    def test_flag_recorded_on_session_and_plans(self, rng):
        with GemmSession(debug=True) as s:
            assert s.debug is True
            s.multiply(*_square(rng, 64))
            plan = s.plan(64, 64, 64)
            assert plan._debug is True
        with GemmSession() as s:
            s.multiply(*_square(rng, 64))
            assert s.plan(64, 64, 64)._debug is False
