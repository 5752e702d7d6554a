"""The paper's primary contribution: MODGEMM.

Morton-order Strassen-Winograd matrix multiplication with dynamic
recursion-truncation-point selection.  See :func:`repro.core.modgemm` for
the BLAS-style entry point and DESIGN.md for the architecture.
"""

from .modgemm import modgemm, modgemm_morton, PhaseTimings
from .truncation import TruncationPolicy, DEFAULT_POLICY
from .winograd import (
    winograd_multiply,
    multiply_morton,
    MEMORY_SCHEDULES,
    resolve_memory,
)
from .strassen import strassen_multiply
from .parallel import (
    parallel_multiply,
    TaskScratch,
    build_winograd_graph,
)
from .scheduler import Schedule, TaskGraph, WorkerPool
from .rectangular import Shape, classify, plan_panels, split_dim, PanelProduct
from .workspace import Workspace
from .ops import NumpyOps, WinogradOps

__all__ = [
    "modgemm",
    "modgemm_morton",
    "PhaseTimings",
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "winograd_multiply",
    "multiply_morton",
    "MEMORY_SCHEDULES",
    "resolve_memory",
    "strassen_multiply",
    "parallel_multiply",
    "TaskScratch",
    "build_winograd_graph",
    "Schedule",
    "TaskGraph",
    "WorkerPool",
    "Shape",
    "classify",
    "plan_panels",
    "split_dim",
    "PanelProduct",
    "Workspace",
    "NumpyOps",
    "WinogradOps",
]
