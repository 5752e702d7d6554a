"""Unit tests for the recursion workspace."""

import numpy as np
import pytest

from repro.core.workspace import Workspace


class TestGeometry:
    def test_level_count(self):
        ws = Workspace(depth=3, tile_m=8, tile_k=8, tile_n=8)
        assert len(ws.levels) == 3

    def test_at_indexing(self):
        ws = Workspace(depth=3, tile_m=8, tile_k=8, tile_n=8)
        # Children of the top level have depth 2.
        lv = ws.at(2)
        assert lv.s.depth == 2
        assert lv.s.padded_rows == 8 * 4
        lv0 = ws.at(0)
        assert lv0.s.depth == 0

    def test_scratch_shapes_follow_operands(self):
        ws = Workspace(depth=2, tile_m=3, tile_k=5, tile_n=7)
        lv = ws.at(1)
        assert (lv.s.tile_r, lv.s.tile_c) == (3, 5)  # A-shaped
        assert (lv.t.tile_r, lv.t.tile_c) == (5, 7)  # B-shaped
        assert (lv.p.tile_r, lv.p.tile_c) == (3, 7)  # C-shaped

    def test_q_optional(self):
        assert Workspace(2, 4, 4, 4, with_q=False).at(1).q is None
        assert Workspace(2, 4, 4, 4, with_q=True).at(1).q is not None

    def test_depth_zero_has_no_levels(self):
        ws = Workspace(depth=0, tile_m=4, tile_k=4, tile_n=4)
        assert ws.levels == []

    def test_total_bytes_geometric(self):
        ws = Workspace(depth=4, tile_m=8, tile_k=8, tile_n=8, with_q=True)
        # 4 quarter buffers per level: total < 4/3 of a full matrix.
        full = (8 << 4) * (8 << 4) * 8
        assert ws.nbytes < 4 * full // 3 + 1
        assert ws.nbytes > 0


class TestSchedules:
    def test_default_is_classic(self):
        assert Workspace(2, 4, 4, 4).schedule == "classic"

    def test_two_temp_halves_square_scratch(self):
        classic = Workspace(3, 8, 8, 8, with_q=True)
        lean = Workspace(3, 8, 8, 8, schedule="two_temp")
        # Square geometry: max(|A|,|C|)+|B| = 2 quarters vs classic's 4.
        assert lean.nbytes * 2 == classic.nbytes

    def test_two_temp_p_aliases_s_buffer(self):
        ws = Workspace(2, 4, 4, 4, schedule="two_temp")
        lv = ws.at(1)
        assert lv.q is None
        assert np.shares_memory(lv.s.buf, lv.p.buf)
        # nbytes counts the shared buffer once.
        assert lv.nbytes == lv.s.buf.nbytes + lv.t.buf.nbytes

    def test_two_temp_rectangular_x_sized_to_max(self):
        # |A quarter| = 3*5, |C quarter| = 3*7 -> X holds the C shape.
        ws = Workspace(1, 3, 5, 7, schedule="two_temp")
        lv = ws.at(0)
        assert lv.p.size == 3 * 7
        assert lv.s.size == 3 * 5
        assert lv.nbytes == (3 * 7 + 5 * 7) * 8

    def test_ip_overwrite_owns_nothing(self):
        ws = Workspace(3, 4, 4, 4, schedule="ip_overwrite")
        assert ws.levels == []
        assert ws.nbytes == 0

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown workspace schedule"):
            Workspace(2, 4, 4, 4, schedule="lean")

    def test_with_q_only_for_classic(self):
        with pytest.raises(ValueError, match="with_q"):
            Workspace(2, 4, 4, 4, with_q=True, schedule="two_temp")


class TestPoisonQuiescence:
    """The poison/poison_intact round trip debug mode relies on."""

    def test_workspace_round_trip(self):
        from repro.observe import POISON

        ws = Workspace(2, 4, 4, 4, with_q=True)
        ws.poison()
        assert ws.poison_intact()
        buf = next(ws._buffers())
        assert buf[0] == POISON
        buf[3] = 0.0  # one stray write anywhere breaks the checksum
        assert not ws.poison_intact()
        ws.poison()
        assert ws.poison_intact()

    def test_two_temp_workspace_round_trip(self):
        ws = Workspace(2, 4, 4, 4, schedule="two_temp")
        ws.poison()
        assert ws.poison_intact()
        ws.at(1).t.buf[-1] = 1.0
        assert not ws.poison_intact()

    def test_depth_zero_workspace_vacuously_intact(self):
        ws = Workspace(0, 4, 4, 4)
        ws.poison()
        assert ws.poison_intact()

    def test_batch_workspace_round_trip(self):
        # A stacked buffer is flat, with room for 4 interleaved items.
        ws = Workspace(2, 4, 4, 4, with_q=True, cap=4)
        s = ws.at(1).s
        assert s.batch == 4 and next(ws._buffers()).shape == (4 * s.size,)
        ws.poison()
        assert ws.poison_intact()
        next(ws._buffers())[2 * s.size + 5] = 0.0
        assert not ws.poison_intact()
        ws.poison()
        assert ws.poison_intact()
