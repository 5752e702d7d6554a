"""The Strassen-Winograd recursion as an explicit task DAG.

The recursion's parallelism is richer than "run the seven top-level
products on a pool": at expansion depth ``d`` there are ``7**d``
independent recursive products, and the S/T operand sums and U-chain
combinations around them form a dependency graph whose edges are exactly
the data flow of the Section 2 equation set.  This module builds that
graph (:func:`build_winograd_graph`) over preallocated scratch
(:class:`TaskScratch`) for execution on a persistent
:class:`repro.core.scheduler.WorkerPool`.

Bit-identity with the sequential schedule
-----------------------------------------
Every task performs the *same* numpy operation on the *same* operand
values as one step of :func:`repro.core.winograd.winograd_multiply` — the
only freedoms taken are (a) writing sums/products to dedicated buffers
instead of the sequential schedule's recycled scratch and (b) commuting
the two inputs of some U-chain additions.  IEEE-754 addition is
commutative (identical rounding either way), so results are bitwise equal
to the sequential recursion regardless of worker count or interleaving —
the property the engine's tests pin down.  Each combination's dependency
edges include both its data inputs and the earlier *readers* of the
quadrant it overwrites (write-after-read hazards), so any topological
execution order is equivalent.

Memory: level 1 of the expansion holds 4+4 operand-sum quarters and 7
product quarters (~3.75x one quadrant); each further level adds the same
shape one size down for each of its 7 nodes.  Leaf tasks below the
expansion run the ordinary sequential recursion with a :class:`Workspace`
drawn from a pool sized to the concurrency hint, so no allocation happens
on the warm path.

The historical :func:`parallel_multiply` survives as a thin deprecated
wrapper over this machinery.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from ..blas.kernels import LeafKernel
from ..layout.matrix import MortonMatrix
from ..layout.relabel import quadrant_slices
from .ops import NumpyOps, WinogradOps
from .scheduler import TaskGraph, WorkerPool, stripe_ranges
from ..observe.validate import POISON
from .winograd import (
    SCHEDULE_TABLES,
    _check_conformable,
    bind_pass,
    resolve_memory,
)
from .workspace import Workspace

__all__ = [
    "TaskScratch",
    "build_winograd_graph",
    "run_batch_stripes",
    "parallel_multiply",
]


def _scratch(
    rows_tile: int, cols_tile: int, depth: int, dtype=np.float64
) -> MortonMatrix:
    n = (rows_tile << depth) * (cols_tile << depth)
    return MortonMatrix(
        buf=np.empty(n, dtype=dtype),
        rows=rows_tile << depth,
        cols=cols_tile << depth,
        tile_r=rows_tile,
        tile_c=cols_tile,
        depth=depth,
    )


class _NodeScratch:
    """Sum/product buffers for one expanded node, with child nodes below."""

    __slots__ = ("s", "t", "p", "children")

    def __init__(
        self, tile_m: int, tile_k: int, tile_n: int, depth: int, levels: int,
        dtype=np.float64,
    ) -> None:
        d = depth - 1
        self.s = [_scratch(tile_m, tile_k, d, dtype) for _ in range(4)]
        self.t = [_scratch(tile_k, tile_n, d, dtype) for _ in range(4)]
        self.p = [_scratch(tile_m, tile_n, d, dtype) for _ in range(7)]
        self.children = (
            [
                _NodeScratch(tile_m, tile_k, tile_n, d, levels - 1, dtype)
                for _ in range(7)
            ]
            if levels > 1 and d >= 1
            else None
        )

    @property
    def total_bytes(self) -> int:
        total = sum(m.buf.nbytes for m in self.s + self.t + self.p)
        if self.children is not None:
            total += sum(child.total_bytes for child in self.children)
        return total

    @property
    def buffer_count(self) -> int:
        n = 15
        if self.children is not None:
            n += sum(child.buffer_count for child in self.children)
        return n


class _WorkspacePool:
    """A blocking free-list of leaf :class:`Workspace` objects.

    Sized to the concurrency hint, so a leaf task never waits unless more
    workers than planned are executing leaves at once — and even then the
    wait is deadlock-free: holders are running tasks that always release.
    """

    def __init__(self, workspaces: list[Workspace]) -> None:
        self._free = list(workspaces)
        self._cond = threading.Condition()
        self.size = len(workspaces)

    def acquire(self) -> Workspace:
        with self._cond:
            while not self._free:
                self._cond.wait()
            return self._free.pop()

    def release(self, ws: Workspace) -> None:
        with self._cond:
            self._free.append(ws)
            self._cond.notify()

    @property
    def all_free(self) -> bool:
        """True when every workspace has been returned (pool quiescent)."""
        with self._cond:
            return len(self._free) == self.size

    @property
    def total_bytes(self) -> int:
        # Stable: workspaces in flight return before anyone reads stats.
        return sum(ws.total_bytes for ws in self._free)

    @property
    def buffer_count(self) -> int:
        return sum(ws.buffer_count for ws in self._free)


class TaskScratch:
    """Pooled intermediates for the task-DAG schedule at one geometry.

    Holds the expansion tree of operand-sum and product buffers down to
    ``parallel_depth`` levels, plus ``min(workers, 7**parallel_depth)``
    leaf workspaces for the sequential recursions below the expansion.
    Bound to the operand geometry ``(tile_m, tile_k, tile_n, depth)``; the
    engine pools one per compiled plan.

    ``memory`` selects the leaf recursion's schedule: ``"two_temp"``
    halves every pooled leaf :class:`Workspace` (the per-worker footprint
    that dominates at high worker counts).  ``"ip_overwrite"`` is
    rejected — leaf tasks share operand quadrant views with concurrent
    tasks, which an in-place recursion would clobber.
    """

    def __init__(
        self,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        depth: int,
        parallel_depth: int = 1,
        workers: int = 7,
        memory: "str | None" = "classic",
        dtype=np.float64,
    ) -> None:
        if depth < 1:
            raise ValueError(f"TaskScratch needs depth >= 1, got {depth}")
        if parallel_depth < 1:
            raise ValueError(
                f"parallel_depth must be >= 1, got {parallel_depth}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        memory = resolve_memory(memory)
        self.table = SCHEDULE_TABLES[memory]
        if self.table.in_place:
            raise ValueError(
                f"memory={memory!r} cannot run under the task scheduler: "
                "leaf recursions would clobber operand quadrants shared "
                "with concurrent tasks; use 'classic' or 'two_temp'"
            )
        self.depth = depth
        self.parallel_depth = min(parallel_depth, depth)
        self.workers = workers
        self.memory = memory
        self.root = _NodeScratch(
            tile_m, tile_k, tile_n, depth, self.parallel_depth, dtype
        )
        leaf_depth = depth - self.parallel_depth
        n_ws = min(workers, 7**self.parallel_depth) if leaf_depth > 0 else 0
        self.workspace_pool = _WorkspacePool([
            self.table.workspace(leaf_depth, tile_m, tile_k, tile_n, dtype=dtype)
            for _ in range(n_ws)
        ])

    def matches(self, a: MortonMatrix, b: MortonMatrix) -> bool:
        """True when this scratch serves the given operand pair."""
        s, t = self.root.s[0], self.root.t[0]
        return (
            a.depth == self.depth
            and s.tile_r == a.tile_r and s.tile_c == a.tile_c
            and t.tile_r == b.tile_r and t.tile_c == b.tile_c
        )

    def _buffers(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            for mm in node.s + node.t + node.p:
                yield mm.buf
            if node.children is not None:
                stack.extend(node.children)

    def poison(self, value: float = POISON) -> None:
        """Fill the expansion-tree buffers and idle leaf workspaces.

        Call only between executions (the workspace pool must be fully
        free): every one of these buffers is write-before-read within a
        run, so the fill cannot perturb results.
        """
        for buf in self._buffers():
            buf.fill(value)
        for ws in self.workspace_pool._free:
            ws.poison(value)

    def poison_intact(self, value: float = POISON) -> bool:
        """True iff no pooled buffer changed since :meth:`poison`."""
        return all(
            bool((buf == value).all()) for buf in self._buffers()
        ) and all(ws.poison_intact(value) for ws in self.workspace_pool._free)

    @property
    def total_bytes(self) -> int:
        """Bytes held across all pooled buffers and leaf workspaces."""
        return self.root.total_bytes + self.workspace_pool.total_bytes

    @property
    def buffer_count(self) -> int:
        """Morton scratch buffers held (for session allocation counters)."""
        return self.root.buffer_count + self.workspace_pool.buffer_count


def build_winograd_graph(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    scratch: TaskScratch,
    ops: WinogradOps | None = None,
    alpha: float = 1.0,
    pack_a=None,
    pack_b=None,
) -> TaskGraph:
    """Build the reusable task DAG computing ``C = alpha . A . B``.

    The graph closes over the operand/product buffers and the scratch, so
    it is built once per (plan, scratch) pair and re-run without touching
    the allocator — ``alpha`` is baked into the outermost U-add closures
    (a plan's spec is frozen, so this costs nothing per run).  Requires
    ``a.depth >= 1`` (use the sequential path for leaf-only operands).
    The operands may be :class:`~repro.layout.relabel.TransposedView`
    wrappers: tasks then read their quadrants in relabeled order, and the
    leaf recursions descend them (and the S/T sums built from them) the
    same way.

    ``pack_a``/``pack_b`` (both or neither) are fused convert-and-pack
    closures that become the graph's two root tasks: each converts its
    operand's consumed quadrants and packs the S1/S3 (T1/T3) sums —
    S1/T1 into the A21/B12 quadrant slots, S3/T3 into ``root.s[2]`` /
    ``root.t[2]`` (the graph's S3/T3 buffers).  The outermost expansion
    then skips its four S1/S3/T1/T3 sum tasks and every consumer gains a
    dependency edge on the pack task of the operand side it reads; the
    two operand conversions also overlap on the pool instead of running
    sequentially before the graph.  Requires plain (non-relabeled)
    operands.
    """
    _check_conformable(a, b, c)
    if not scratch.matches(a, b):
        raise ValueError("scratch geometry does not match the operands")
    if (pack_a is None) != (pack_b is None):
        raise ValueError("pack_a and pack_b must be given together")
    prepacked = pack_a is not None
    relabeled = (getattr(a, "transposed", False), getattr(b, "transposed", False))
    if prepacked and any(relabeled):
        raise ValueError(
            "fused packing cannot consume relabeled (transposed) operands"
        )
    if ops is None:
        ops = NumpyOps()
    graph = TaskGraph(name=f"winograd-{a.rows}x{a.cols}x{b.cols}")
    graph.tracer = getattr(ops, "trace", None)
    deps_a: tuple = ()
    deps_b: tuple = ()
    if prepacked:
        deps_a = (graph.add(pack_a, label="pack_a"),)
        deps_b = (graph.add(pack_b, label="pack_b"),)
    geo = ((a.tile_r, a.tile_c, b.tile_c), relabeled)
    _expand(graph, ops, scratch, geo, a.buf, b.buf, c.buf, a.depth,
            scratch.root, scratch.parallel_depth, deps_a, deps_b, alpha,
            prepacked=prepacked)
    return graph


def _expand(
    graph: TaskGraph,
    ops: WinogradOps,
    scratch: TaskScratch,
    geo: tuple,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    depth: int,
    node: _NodeScratch | None,
    levels: int,
    deps_a: tuple,
    deps_b: tuple,
    alpha: float = 1.0,
    prepacked: bool = False,
) -> list:
    """Emit tasks computing ``c = alpha . a . b``; return c's final tasks.

    ``a``/``b``/``c`` are raw depth-``depth`` buffers and ``geo`` is
    ``(tiles, relabeled)`` as :meth:`StepTable.execute` takes them.
    Sub-products recurse with ``alpha=1``: only the outermost expansion's
    final U-adds (or its leaf closure, if the whole product is one task)
    carry the scale, mirroring the sequential schedules.
    """
    if levels == 0 or depth == 0:
        ws_pool = scratch.workspace_pool
        table = scratch.table
        tiles, relabeled = geo

        if depth == 0:
            def leaf(x=a, y=b, out=c):
                table.execute(x, y, out, tiles, 0, ops, alpha=alpha,
                              relabeled=relabeled)
        else:
            def leaf(x=a, y=b, out=c):
                ws = ws_pool.acquire()
                try:
                    table.execute(x, y, out, tiles, depth, ops, ws, alpha,
                                  relabeled=relabeled)
                finally:
                    ws_pool.release(ws)

        return [graph.add(leaf, deps=(*deps_a, *deps_b), label="product")]

    ra, rb = geo[1]
    a11, a12, a21, a22 = quadrant_slices(a, ra)
    b11, b12, b21, b22 = quadrant_slices(b, rb)
    c11, c12, c21, c22 = quadrant_slices(c)
    # Dedicated S/T buffers hold sums in their operand's stored
    # permutation, so the products below descend them in that
    # operand's order (the leaf recursions key it on ``relabeled``).
    s1, s2, s3, s4 = (m.buf for m in node.s)
    t1, t2, t3, t4 = (m.buf for m in node.t)
    p = [m.buf for m in node.p]

    def op2(fn, dst, x, y):
        return lambda: fn(dst, x, y)

    # Operand sums (Section 2): chained in dataflow order.  Dedicated
    # destination buffers replace the sequential schedule's recycled S/T
    # scratch, so the four sums per side can proceed concurrently.
    if prepacked:
        # The root pack tasks (in deps_a/deps_b) already materialised
        # S1/T1 in the A21/B12 quadrant slots and S3/T3 in this node's
        # s[2]/t[2] buffers; only the S2/S4 and T2/T4 chains remain.
        s1, t1 = a21, b12
        ts2 = graph.add(op2(ops.sub, s2, s1, a11), deps=deps_a, label="S2")
        ts4 = graph.add(
            op2(ops.sub, s4, a12, s2), deps=(ts2, *deps_a), label="S4"
        )
        tt2 = graph.add(op2(ops.sub, t2, b22, t1), deps=deps_b, label="T2")
        tt4 = graph.add(
            op2(ops.sub, t4, b21, t2), deps=(tt2, *deps_b), label="T4"
        )
        p3_deps = (deps_a, deps_b)
        p5_deps = (deps_a, deps_b)
    else:
        ts1 = graph.add(op2(ops.add, s1, a21, a22), deps=deps_a, label="S1")
        ts2 = graph.add(
            op2(ops.sub, s2, s1, a11), deps=(ts1, *deps_a), label="S2"
        )
        ts3 = graph.add(op2(ops.sub, s3, a11, a21), deps=deps_a, label="S3")
        ts4 = graph.add(
            op2(ops.sub, s4, a12, s2), deps=(ts2, *deps_a), label="S4"
        )
        tt1 = graph.add(op2(ops.sub, t1, b12, b11), deps=deps_b, label="T1")
        tt2 = graph.add(
            op2(ops.sub, t2, b22, t1), deps=(tt1, *deps_b), label="T2"
        )
        tt3 = graph.add(op2(ops.sub, t3, b22, b12), deps=deps_b, label="T3")
        tt4 = graph.add(
            op2(ops.sub, t4, b21, t2), deps=(tt2, *deps_b), label="T4"
        )
        p3_deps = ((ts1,), (tt1,))
        p5_deps = ((ts3,), (tt3,))

    kids = node.children or [None] * 7

    def product(i, x, y, dx, dy):
        return _expand(graph, ops, scratch, geo, x, y, p[i], depth - 1,
                       kids[i], levels - 1, dx, dy)

    p1 = product(0, a11, b11, deps_a, deps_b)
    p2 = product(1, a12, b21, deps_a, deps_b)
    p3 = product(2, s1, t1, *p3_deps)
    p4 = product(3, s2, t2, (ts2,), (tt2,))
    p5 = product(4, s3, t3, *p5_deps)
    p6 = product(5, s4, b22, (ts4,), deps_b)
    p7 = product(6, a22, t4, deps_a, (tt4,))

    # U-chain combinations.  Values match the sequential schedule bitwise
    # (see module docstring); edges beyond the data inputs order the
    # staged writes: u3 reads C12 before u7a overwrites it, u5 reads C21
    # before u4 does.
    u2 = graph.add(op2(ops.add, c12, p[0], p[3]), deps=(*p1, *p4), label="U2")
    u3 = graph.add(op2(ops.add, c21, c12, p[4]), deps=(u2, *p5), label="U3")
    u7a = graph.add(lambda: ops.iadd(c12, p[5]), deps=(u3, *p6), label="U7a")
    # Each quadrant's *final* U-add carries alpha; every final reads only
    # staged (unscaled) values — the (u5, *p7) edge on u4 already orders
    # u5's read of C21 before u4 scales it in place.
    add_final = bind_pass(ops, "add", alpha)
    iadd_final = bind_pass(ops, "iadd", alpha)
    u1 = graph.add(op2(add_final, c11, p[0], p[1]), deps=(*p1, *p2), label="U1")
    u5 = graph.add(op2(add_final, c22, c21, p[2]), deps=(u3, *p3), label="U5")
    u7b = graph.add(lambda: iadd_final(c12, p[2]), deps=(u7a, *p3), label="U7b")
    u4 = graph.add(lambda: iadd_final(c21, p[6]), deps=(u5, *p7), label="U4")
    return [u1, u7b, u4, u5]


def run_batch_stripes(
    pool: "WorkerPool | None",
    batch: int,
    stripe_fn,
    workers: int,
    name: str = "batch-stripes",
    tracer=None,
) -> int:
    """Run ``stripe_fn(lo, hi)`` over even stripes of ``range(batch)``.

    The batched GEMM's parallel schedule: instead of expanding one item's
    recursion into a 7-way task DAG, the *batch axis* splits into
    contiguous row stripes — one task per stripe, each running the
    sequential batched recursion over its rows.  Stripes touch disjoint
    batch rows of the operand, output, and workspace stacks, so tasks need
    no ordering edges and results are bit-identical to the unstriped run
    (each item's arithmetic is unchanged; only which rows share a ufunc
    call varies).  Returns the number of stripes executed.  With no pool
    (or a single stripe) the stripes run inline.

    ``tracer`` (a :class:`repro.observe.Tracer`) receives one
    ``batch_stripe`` event per completed stripe and, on the pooled path,
    the worker start/steal/finish events of the throwaway stripe graph.
    """
    stripes = stripe_ranges(batch, workers)

    def job(lo: int, hi: int):
        def run():
            stripe_fn(lo, hi)
            if tracer is not None and tracer.enabled:
                tracer.emit("batch_stripe", label=name, lo=lo, hi=hi)

        return run

    if pool is None or len(stripes) <= 1:
        for lo, hi in stripes:
            job(lo, hi)()
        return len(stripes)
    pool.run_all([job(lo, hi) for lo, hi in stripes], name=name, tracer=tracer)
    return len(stripes)


# --------------------------------------------------------------- legacy API

_legacy_pools: dict[int, WorkerPool] = {}
_legacy_lock = threading.Lock()


def _legacy_pool(workers: int) -> WorkerPool:
    with _legacy_lock:
        pool = _legacy_pools.get(workers)
        if pool is None:
            pool = _legacy_pools[workers] = WorkerPool(
                workers, name=f"repro-legacy-{workers}"
            )
        return pool


def parallel_multiply(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix | None = None,
    kernel: "str | LeafKernel" = "numpy",
    max_workers: int = 7,
    scratch: TaskScratch | None = None,
) -> MortonMatrix:
    """``C = A . B`` on a worker pool (deprecated free-standing form).

    .. deprecated::
        Use a :class:`repro.engine.GemmSession` with
        ``schedule=Schedule.tasks(...)`` (or ``parallel=True``) instead:
        sessions own a persistent worker pool and pool all scratch inside
        compiled plans, where this wrapper rebuilds the task graph per
        call.  Results are bit-identical to the session's task schedule
        (and to the sequential recursion).

    Falls back to the sequential leaf multiply for depth-0 operands.
    ``scratch`` supplies pooled intermediate buffers (see
    :class:`TaskScratch`); when absent a fresh set is allocated, matching
    the historical behaviour.
    """
    warnings.warn(
        "parallel_multiply is deprecated; use GemmSession with a "
        "tasks schedule (parallel=True or schedule='tasks:...')",
        DeprecationWarning,
        stacklevel=2,
    )
    if c is None:
        c = _scratch(a.tile_r, b.tile_c, a.depth)
        c.rows, c.cols = a.rows, b.cols
    _check_conformable(a, b, c)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    ops = NumpyOps(kernel)
    if a.depth == 0:
        SCHEDULE_TABLES["classic"].run(a, b, c, ops)
        return c
    if scratch is None:
        scratch = TaskScratch(
            a.tile_r, a.tile_c, b.tile_c, a.depth,
            parallel_depth=1, workers=max_workers,
        )
    graph = build_winograd_graph(a, b, c, scratch, ops=ops)
    if max_workers == 1:
        graph.run_inline()
    else:
        _legacy_pool(min(max_workers, 7)).run(graph)
    return c
