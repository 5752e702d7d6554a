"""Strassen's original 1969 schedule (7 products, 18 additions).

The paper presents this form in Section 2 before switching to Winograd's
variant; we implement it as an ablation baseline so the benefit of
Winograd's common-subexpression reuse (15 vs 18 additions) can be measured
in isolation on identical Morton machinery::

    P1 = (A11+A22).(B11+B22)   P2 = (A21+A22).B11   P3 = A11.(B12-B22)
    P4 = A22.(B21-B11)         P5 = (A11+A12).B22   P6 = (A21-A11).(B11+B12)
    P7 = (A12-A22).(B21+B22)

    C11 = P1 + P4 - P5 + P7    C12 = P3 + P5
    C21 = P2 + P4              C22 = P1 + P3 - P2 + P6

The schedule is one :class:`~repro.core.winograd.StepTable` run by the
same executor as the Winograd schedules, so alpha, the ops a backend must
provide and the scratch layout are derived from its rows in the same way.
It needs one more scratch buffer (Q) than the Winograd schedule because
P1 is consumed by two distant C quadrants.
"""

from __future__ import annotations

from ..layout.matrix import MortonMatrix
from .ops import NumpyOps, WinogradOps
from .winograd import StepTable, _check_conformable
from .workspace import Workspace

__all__ = ["strassen_multiply", "STRASSEN_TABLE"]

#: The schedule as step rows over the classic S/T/P/Q scratch layout.
STRASSEN_TABLE = StepTable("strassen", "classic", (
    ("add", "S", "A11", "A22"),
    ("add", "T", "B11", "B22"),
    ("mul", "P", "S", "T"),              # P = P1
    ("add", "S", "A21", "A22"),
    ("mul", "C21", "S", "B11"),          # C21 = P2
    ("sub", "T", "B12", "B22"),
    ("mul", "C12", "A11", "T"),          # C12 = P3
    ("sub", "T", "B21", "B11"),
    ("mul", "Q", "A22", "T"),            # Q = P4
    # C11 = P1 + P4 (P5 and P7 folded in below); C22 = P1 + P3 - P2.
    ("add", "C11", "P", "Q"),
    ("add", "C22", "P", "C12"),
    ("sub", "C22", "C22", "C21"),
    ("iadd", "C21", "Q"),                # C21 = P2 + P4 (final)
    ("add", "S", "A11", "A12"),
    ("mul", "Q", "S", "B22"),            # Q = P5
    ("sub", "C11", "C11", "Q"),          # C11 -= P5
    ("iadd", "C12", "Q"),                # C12 = P3 + P5 (final)
    ("sub", "S", "A21", "A11"),
    ("add", "T", "B11", "B12"),
    ("mul", "Q", "S", "T"),              # Q = P6
    ("iadd", "C22", "Q"),                # C22 final
    ("sub", "S", "A12", "A22"),
    ("add", "T", "B21", "B22"),
    ("mul", "Q", "S", "T"),              # Q = P7
    ("iadd", "C11", "Q"),                # C11 final
))


def strassen_multiply(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps | None = None,
    workspace: Workspace | None = None,
    alpha: float = 1.0,
) -> MortonMatrix:
    """``C = alpha . A . B`` with the original Strassen schedule.

    ``alpha`` is folded into each C quadrant's final addition, mirroring
    :func:`repro.core.winograd.winograd_multiply`; transposes and beta
    stay the caller's concern (the engine serves them through relabeled
    conversion and staged accumulation respectively).  Without a
    ``workspace``, scratch is allocated in the operands' dtype.
    """
    _check_conformable(a, b, c)
    if ops is None:
        ops = NumpyOps()
    STRASSEN_TABLE.run(a, b, c, ops, workspace, alpha)
    return c
