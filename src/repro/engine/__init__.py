"""The plan-caching GEMM execution engine.

``repro.engine`` amortises everything :func:`repro.modgemm` decides per
call — truncation-point selection, Morton buffer and workspace allocation,
kernel/variant resolution — across repeated multiplies of the same
geometry.  This is the serving-workload fast path: create one
:class:`GemmSession`, then::

    import numpy as np
    from repro.engine import GemmSession

    session = GemmSession()
    for a, b in stream_of_same_shape_pairs:
        c = session.multiply(a, b)        # plans once, reuses thereafter

    plan = session.plan(513, 513, 513)    # or compile a plan explicitly
    c = plan.execute(a, b)

    results = session.multiply_many([(a1, b1), (a2, b2)])   # stacked if same shape
    print(session.stats())                # hits/misses, bytes pooled, ...

:func:`repro.modgemm` and :func:`repro.modgemm_morton` are thin wrappers
over the module-level :func:`default_session`, so one-shot callers get the
cache for free while staying behaviour-identical.
"""

from ..core.winograd import MEMORY_SCHEDULES, resolve_memory
from .expr import Mat, MatChain, chain_order
from .spec import GemmSpec
from .plan import (
    BATCH_CAP_MAX,
    CompiledPlan,
    PlanKey,
    batch_size_class,
    resolve_variant,
    VARIANTS,
)
from .session import (
    GemmSession,
    SessionStats,
    default_session,
    reset_default_session,
)

__all__ = [
    "BATCH_CAP_MAX",
    "batch_size_class",
    "chain_order",
    "CompiledPlan",
    "GemmSpec",
    "Mat",
    "MatChain",
    "PlanKey",
    "GemmSession",
    "SessionStats",
    "default_session",
    "reset_default_session",
    "resolve_variant",
    "VARIANTS",
    "MEMORY_SCHEDULES",
    "resolve_memory",
]
