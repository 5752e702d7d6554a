"""Typed exceptions for the repro package.

Engine callers (``repro.engine``) need to distinguish *why* a GEMM could
not be planned or executed: a malformed problem (shapes), an infeasible or
invalid truncation plan, or an unresolvable kernel/variant.  Each class
subclasses :class:`ValueError` so existing ``except ValueError`` call
sites — and the seed test-suite — keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError", "ShapeError", "PlanError", "KernelError", "BatchItemError",
    "InvariantError",
]


class ReproError(ValueError):
    """Base class for all typed repro errors (a :class:`ValueError`)."""


class ShapeError(ReproError):
    """Operand shapes or dimensions are invalid or non-conformable.

    Raised by :meth:`repro.blas.dgemm.GemmProblem.create` and by
    :meth:`repro.engine.CompiledPlan.execute` when operands do not match
    the plan's frozen geometry.
    """


class PlanError(ReproError):
    """A truncation/recursion plan is invalid or cannot be honoured.

    Raised by :class:`repro.core.truncation.TruncationPolicy` for invalid
    policy parameters or GEMM dimensions, and by the engine when a request
    is inconsistent (e.g. ``memory="two_temp"`` with the Strassen variant).
    """


class KernelError(ReproError):
    """A leaf kernel or recursion variant could not be resolved.

    Raised by :func:`repro.blas.kernels.get_kernel` and by the variant
    resolution shared across ``modgemm`` and the engine.
    """


class InvariantError(ReproError):
    """A debug-mode invariant check failed (``GemmSession(debug=True)``).

    Raised by the :mod:`repro.observe` validation layer when an armed
    check at a phase boundary finds pooled state that the engine's
    contracts forbid: a nonzero operand pad, a scratch buffer written
    between executions, a non-finite leaf product, or inconsistent task
    graph accounting.  This always indicates an engine (or caller
    buffer-aliasing) bug, never a property of the input values.
    """


class BatchItemError(ReproError):
    """One item of a :meth:`GemmSession.multiply_many` batch failed.

    ``index`` identifies the failing item in the input order; the original
    exception is chained as ``__cause__``.  Raising this instead of the
    bare cause means a single malformed item surfaces *which* item broke
    without poisoning the rest of the batch dispatch.
    """

    def __init__(self, index: int, cause: BaseException) -> None:
        super().__init__(f"multiply_many item {index} failed: {cause}")
        self.index = index
