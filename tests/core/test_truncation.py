"""Unit tests for the truncation policies."""

import pytest

from repro.core.truncation import DEFAULT_POLICY, TruncationPolicy


class TestDynamic:
    def test_default_range(self):
        p = TruncationPolicy.dynamic()
        assert p.tile_range is not None
        assert (p.tile_range.min_tile, p.tile_range.max_tile) == (16, 64)
        assert p.fixed_tile is None

    def test_plan_square(self):
        plan = TruncationPolicy.dynamic().plan(513, 513, 513)
        assert plan is not None
        assert plan[0].padded == 528

    def test_plan_returns_none_for_extreme_ratio(self):
        assert TruncationPolicy.dynamic().plan(2048, 256, 256) is None

    def test_plan_is_memoised_per_policy(self):
        p = TruncationPolicy.dynamic()
        assert p.plan(513, 513, 513) is p.plan(513, 513, 513)
        assert p.plan(2048, 256, 256) is None
        # The memo is not part of the policy's identity.
        assert p == TruncationPolicy.dynamic()
        assert hash(p) == hash(TruncationPolicy.dynamic())

    def test_label(self):
        assert TruncationPolicy.dynamic(8, 32).label == "dynamic[8,32]"


class TestFixed:
    def test_paper_513_blowup(self):
        # The motivating pathology: fixed T=32 pads 513 to 1024.
        plan = TruncationPolicy.fixed(32).plan(513, 513, 513)
        assert plan is not None
        assert plan[0].padded == 1024

    def test_power_of_two_is_tight(self):
        plan = TruncationPolicy.fixed(32).plan(512, 512, 512)
        assert plan[0].padded == 512
        assert plan[0].depth == 4

    def test_small_matrices_single_leaf(self):
        plan = TruncationPolicy.fixed(32).plan(20, 30, 10)
        assert all(t.depth == 0 for t in plan)

    def test_common_depth_forced_by_largest(self):
        plan = TruncationPolicy.fixed(32).plan(1024, 64, 64)
        assert plan is not None
        depths = {t.depth for t in plan}
        assert depths == {5}
        assert plan[1].padded == 1024  # small dims over-padded: the cost of fixed T

    def test_never_none(self):
        assert TruncationPolicy.fixed(32).plan(2048, 256, 256) is not None

    def test_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            TruncationPolicy.fixed(0)

    def test_label(self):
        assert TruncationPolicy.fixed(64).label == "fixed[64]"


def test_default_policy_is_paper_range():
    assert DEFAULT_POLICY.tile_range is not None
    assert DEFAULT_POLICY.tile_range.min_tile == 16
