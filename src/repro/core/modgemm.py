"""MODGEMM: the paper's Morton-order Strassen-Winograd dgemm.

The public entry point :func:`modgemm` follows the Level-3 BLAS dgemm
contract (Section 2.1) and stitches together the full pipeline of
Section 3.5:

1. plan a common recursion depth and per-dimension leaf tiles that minimise
   padding (dynamic truncation-point selection) — or, for highly
   rectangular operands with no common depth, split into well-behaved
   panels first (Figure 4);
2. convert the inputs from column-major to Morton order at the interface
   level, fusing any requested transposition into the conversion;
3. run the Strassen-Winograd recursion entirely on contiguous Morton
   buffers (redundant arithmetic on the zero pad included);
4. convert the product back and post-process ``alpha``/``beta`` only when
   they differ from the common values 1 and 0.

Since the :mod:`repro.engine` redesign both entry points are thin wrappers
over the module-level plan-caching :class:`repro.engine.GemmSession`:
repeated same-geometry calls skip steps 1's search and all buffer
allocation while remaining bit-identical to the historical per-call path.

:func:`modgemm_morton` is the conversion-free variant used for Figure 8
("assuming matrices are already in Morton order").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..blas.dgemm import OpKind
from ..blas.kernels import LeafKernel
from ..layout.matrix import MortonMatrix
from .truncation import TruncationPolicy
from .workspace import Workspace

__all__ = ["modgemm", "modgemm_morton", "PhaseTimings"]


@dataclass
class PhaseTimings:
    """Wall-clock breakdown of one modgemm call (drives Figure 7).

    All values in seconds; ``convert`` covers both input conversions plus
    the output conversion back to column-major, mirroring what the paper's
    conversion-cost figure measures.
    """

    to_morton: float = 0.0
    compute: float = 0.0
    from_morton: float = 0.0
    panels: int = field(default=1)

    @property
    def convert(self) -> float:
        return self.to_morton + self.from_morton

    @property
    def total(self) -> float:
        return self.to_morton + self.compute + self.from_morton

    @property
    def convert_fraction(self) -> float:
        t = self.total
        return self.convert / t if t > 0 else 0.0


def modgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    op_a: "OpKind | str" = "n",
    op_b: "OpKind | str" = "n",
    policy: "TruncationPolicy | int | str | None" = None,
    kernel: "str | LeafKernel" = "numpy",
    variant: str = "winograd",
    timings: PhaseTimings | None = None,
    schedule=None,
    memory: "str | None" = None,
    trans_a: bool | None = None,
    trans_b: bool | None = None,
) -> np.ndarray:
    """``C <- alpha * op(A) . op(B) + beta * C`` via Morton-order Strassen-Winograd.

    Parameters mirror BLAS dgemm.  ``c`` is updated in place (and returned)
    when given; otherwise a fresh array is returned and ``beta`` must be 0.
    ``trans_a``/``trans_b`` are boolean aliases for the ``op_a``/``op_b``
    spellings and win over them when supplied.
    ``policy`` selects truncation (a :class:`TruncationPolicy`, an int
    static truncation point, or ``"dynamic"``/``"fixed"``); ``variant`` the
    Winograd (default) or original Strassen schedule — by name or by
    function; ``kernel`` the leaf multiply; ``timings``, when supplied, is
    filled with the conversion/compute phase breakdown.  ``schedule``
    accepts only ``None``/``"sequential"``: the task-graph scheduler was
    removed, so any other value raises :class:`repro.errors.PlanError`
    (parallelism comes from a multi-threaded BLAS under the leaf
    products).  ``memory`` selects the recursion's scratch
    schedule (``"classic"``/``"two_temp"``/``"ip_overwrite"``; see
    :data:`repro.core.winograd.MEMORY_SCHEDULES`).  Every mode returns
    bit-identical results.

    Calls are served by the module-level plan-caching session
    (:func:`repro.engine.default_session`): one-shot behaviour is
    unchanged, repeated same-geometry calls reuse the compiled plan.
    """
    from ..engine.session import default_session

    return default_session().multiply(
        a, b, c=c, alpha=alpha, beta=beta, op_a=op_a, op_b=op_b,
        policy=policy, kernel=kernel, variant=variant,
        schedule=schedule, timings=timings,
        memory=memory, trans_a=trans_a, trans_b=trans_b,
    )


def modgemm_morton(
    a_mm: MortonMatrix,
    b_mm: MortonMatrix,
    c_mm: MortonMatrix | None = None,
    kernel: "str | LeafKernel" = "numpy",
    variant: str = "winograd",
    workspace: Workspace | None = None,
    memory: "str | None" = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans_a: bool = False,
    trans_b: bool = False,
) -> MortonMatrix:
    """Multiply operands already in Morton order; no conversions (Figure 8).

    Operands must share the recursion depth and have conformable tile
    edges — i.e. they were created from a single
    :meth:`TruncationPolicy.plan`.  Returns the Morton-ordered product.
    When ``workspace`` is omitted the default session pools one per
    geometry (an explicit workspace bypasses the pool, as before); when
    ``c_mm`` is also omitted the result lives in the session's pooled
    output buffer and stays valid until the next same-geometry call.
    ``memory`` selects the scratch schedule; ``"ip_overwrite"`` destroys
    the contents of ``a_mm``/``b_mm``.  ``trans_a``/``trans_b`` consume the
    operands through Morton quadrant-swap relabeling (no copies; Winograd
    only), and ``alpha``/``beta`` follow the dgemm contract — ``beta != 0``
    requires ``c_mm`` and accumulates into it.
    """
    from ..engine.session import default_session

    return default_session().multiply_morton(
        a_mm, b_mm, c_mm, kernel=kernel, variant=variant, workspace=workspace,
        memory=memory, alpha=alpha, beta=beta, trans_a=trans_a, trans_b=trans_b,
    )
