"""Invariant checks armed by ``GemmSession(debug=True)``.

The pooled-buffer engine rests on a handful of invariants that comments
used to assert and nothing checked:

* **Operand pads stay zero.**  Compiled plans zero their Morton pads once
  and convert with ``zero_pad=False`` forever after (PR 1); the
  ``ip_overwrite`` schedule re-zeros clobbered operand buffers between
  executions (PR 3); batch stacks rely on pads surviving across
  executions (PR 4).  If any of that slips, results are silently wrong —
  the redundant pad arithmetic only cancels when the pad is zero.
* **Workspaces are quiescent between executions.**  Scratch buffers are
  write-before-read *within* one execution; nothing may touch them
  *between* executions (a stray concurrent writer means two executions
  are sharing buffers that the locking discipline says they cannot).
  Debug mode poison-fills every scratch buffer after an execution and
  verifies the poison is intact before the next one — a checksum of
  "nobody wrote here" that machine-checks the Boyer-schedule quiescence
  assumptions instead of trusting them.
* **Leaf products are finite.**  A NaN/Inf escaping a leaf product is
  diagnosed at the site that made it, not three U-chain additions later.

All violations raise :class:`repro.errors.InvariantError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantError

__all__ = ["POISON", "check_finite", "check_pad_zero", "check_quiescent"]

#: The quiescence sentinel debug mode fills scratch buffers with between
#: executions.  A finite, exactly-representable value no real computation
#: produces wholesale (and, unlike NaN, one that ``==`` can verify).
POISON = -6.02214076e23


def check_pad_zero(mm, name: str) -> None:
    """Raise unless every pad element of a Morton matrix is exactly zero.

    ``mm`` is a :class:`repro.layout.matrix.MortonMatrix` (its
    ``pad_is_zero`` walks the leaf tiles that straddle the logical
    boundary).  Matrices with no pad pass trivially.
    """
    if mm.size == mm.rows * mm.cols:
        return
    if not mm.pad_is_zero():
        raise InvariantError(
            f"operand pad corrupted: buffer {name!r} "
            f"({mm.rows}x{mm.cols} padded to "
            f"{mm.padded_rows}x{mm.padded_cols}) has nonzero pad elements; "
            "pooled conversions assume zero pads (zero_pad=False) and the "
            "redundant pad arithmetic is only harmless over zeros"
        )


def check_quiescent(scratch, name: str) -> None:
    """Raise unless a poisoned scratch object is still wholly poisoned.

    ``scratch`` is anything exposing ``poison_intact()`` — a single or
    stacked :class:`~repro.core.workspace.Workspace`.  Call only after the
    owner has ``poison()``-ed it at the end of the previous execution.
    """
    if not scratch.poison_intact():
        raise InvariantError(
            f"workspace {name!r} was written between executions: the "
            "quiescence poison is no longer intact.  Another thread is "
            "sharing this plan's pooled scratch, which the per-plan "
            "locking discipline must never allow"
        )


def check_finite(out: np.ndarray, label: str) -> None:
    """Raise if a leaf product produced any NaN or Inf."""
    if not np.isfinite(out).all():
        bad = int(out.size - np.count_nonzero(np.isfinite(out)))
        raise InvariantError(
            f"leaf product {label} produced {bad} non-finite value(s) "
            f"in a {out.shape} output"
        )
