"""Compiled GEMM plans: frozen geometry decisions plus pooled buffers.

A :class:`CompiledPlan` captures everything :func:`repro.modgemm` used to
recompute per call for a fixed problem geometry:

* the ``(Tiling, Tiling, Tiling)`` from :meth:`TruncationPolicy.plan`
  (or, for highly rectangular problems, the Figure-4 panel decomposition
  and one sub-plan per panel geometry);
* the Morton-order operand and product buffers, allocated once with their
  pads zeroed once — repeated conversions then touch only logical
  elements (``dense_to_morton(..., zero_pad=False)``);
* the per-level :class:`~repro.core.workspace.Workspace` shared across
  executions;
* the resolved leaf kernel and the step table of its recursion variant
  and memory schedule.

``plan.execute(a, b, ...)`` then runs the full BLAS contract against the
frozen geometry, allocating only the dense output.  A plan compiled with
an integer ``cap`` gives every pooled buffer room for ``cap`` items,
interleaved tile by tile (:mod:`repro.layout.matrix`), and runs up to
``cap`` same-geometry problems through one recursion
(:meth:`CompiledPlan.execute_batch`).  Plans serialise their own
executions with an internal lock, so one plan shared by many threads
(e.g. via :meth:`GemmSession.multiply_many`) never corrupts its pooled
buffers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..blas.dgemm import GemmProblem, OpKind
from ..blas.kernels import LeafKernel
from ..core.modgemm import PhaseTimings
from ..core.ops import NumpyOps
from ..core.rectangular import plan_panels
from ..core.strassen import STRASSEN_TABLE, strassen_multiply
from ..core.truncation import TruncationPolicy
from ..core.winograd import (
    SCHEDULE_TABLES,
    StepTable,
    resolve_memory,
    winograd_multiply,
)
from ..errors import BatchItemError, KernelError, PlanError, ShapeError
from ..layout.convert import (
    dense_to_morton,
    dense_to_morton_batch,
    morton_to_dense,
    morton_to_dense_batch,
)
from ..layout.matrix import MortonMatrix
from ..layout.padding import Tiling
from ..observe.validate import check_pad_zero, check_quiescent
from .spec import GemmSpec

__all__ = [
    "PlanKey", "CompiledPlan", "batch_size_class",
    "resolve_variant", "VARIANTS", "BATCH_CAP_MAX",
]


def _step_table(variant: str, memory: str) -> StepTable:
    """The step table a plan of this variant and memory schedule runs."""
    return STRASSEN_TABLE if variant == "strassen" else SCHEDULE_TABLES[memory]


#: Largest stacked-batch capacity class; bigger batches execute in chunks
#: of this size, so one cached stacked plan serves any batch length while
#: its pooled stacks stay bounded (3 operand stacks + workspace).
BATCH_CAP_MAX = 32


def batch_size_class(n_items: int) -> int:
    """The pooled-buffer capacity class serving a batch of ``n_items``.

    The next power of two, capped at :data:`BATCH_CAP_MAX` — so a session
    caches at most ``log2(BATCH_CAP_MAX)+1`` stack sizes per geometry
    instead of one per distinct batch length.
    """
    if n_items < 1:
        raise ValueError(f"batch must have >= 1 item, got {n_items}")
    return min(1 << (n_items - 1).bit_length(), BATCH_CAP_MAX)

#: Canonical recursion-variant names and their multiply entry points.
VARIANTS = {"winograd": winograd_multiply, "strassen": strassen_multiply}


def resolve_variant(variant) -> str:
    """Normalise a recursion-variant argument to its canonical name.

    Accepts the canonical strings (``"winograd"``, ``"strassen"``,
    case-insensitive) or the multiply functions themselves
    (:func:`winograd_multiply` / :func:`strassen_multiply`), mirroring the
    string-or-object convention of ``kernel`` and ``op_a``/``op_b``.
    """
    if isinstance(variant, str):
        name = variant.lower()
        if name in VARIANTS:
            return name
    else:
        for name, fn in VARIANTS.items():
            if variant is fn:
                return name
    raise KernelError(
        f"unknown variant {variant!r}; expected {sorted(VARIANTS)}"
    )


@dataclass(frozen=True)
class PlanKey:
    """The memoisation key of one compiled plan.

    Two multiplies share a plan exactly when every field matches: the
    logical GEMM dimensions, the truncation policy, the resolved leaf
    kernel (by identity — named kernels resolve to module-level
    functions, so equal names compare equal), the recursion variant, the
    memory schedule (see :data:`repro.core.winograd.MEMORY_SCHEDULES`)
    and the full operation :class:`~repro.engine.spec.GemmSpec`.  The
    spec is load-bearing: ``alpha`` is baked into a plan's final U-adds,
    ``beta`` into its output-conversion epilogue, and the transpose flags
    decide each operand buffer's *orientation* — so two calls differing
    in any of them genuinely need different compiled artefacts.
    """

    m: int
    k: int
    n: int
    policy: TruncationPolicy
    kernel: LeafKernel
    variant: str
    memory: str = "classic"
    spec: GemmSpec = GemmSpec()

    def __post_init__(self) -> None:
        # Hashed once: a key is looked up per batch item and per cache probe.
        object.__setattr__(self, "_hash", hash((
            self.m, self.k, self.n, self.policy, self.kernel, self.variant,
            self.memory, self.spec,
        )))

    def __hash__(self) -> int:
        return self._hash


class _ExecExtras:
    """Per-execution fused-pass count, folded into the session."""

    __slots__ = ("fused_adds",)

    def __init__(self) -> None:
        self.fused_adds = 0


class CompiledPlan:
    """A ready-to-execute GEMM for one frozen problem geometry.

    Created by :meth:`GemmSession.plan`; execute with
    :meth:`execute` (full dgemm semantics) as many times as desired.

    An integer ``cap`` (1 included) compiles a *stacked* plan, as
    :meth:`GemmSession.multiply_many` does per :func:`batch_size_class`:
    the operand, product and scratch buffers grow to ``cap`` item
    lengths, and :meth:`execute_batch` runs ``n <= cap`` problems,
    interleaved by ``n`` over each buffer's first ``n`` item lengths,
    through **one** recursion — every addition a single 1-D ufunc over a
    contiguous range holding all ``n`` items' parts, every leaf product
    one batched ``matmul`` over a contiguous ``(n, T, T)`` stack.
    Results are bit-identical to executing the items one by one: the
    table, the executor and the addition order are the same, only the
    buffers are longer.  A stacked plan needs a well-behaved tiling and a
    table that never writes its operands (not ``ip_overwrite``), since
    the stacks' zero pads must survive across executions (pad positions
    move with ``n``, so a padded stack re-zeros its operand prefix when
    ``n`` changes).
    """

    def __init__(self, key: PlanKey, session, cap: int | None = None) -> None:
        self.key = key
        self.cap = cap
        self.session = session
        self._lock = threading.Lock()
        self._cache_hit = False  # updated by the session on each lookup
        self._debug = bool(getattr(session, "debug", False))
        self._poisoned = False  # scratch poison-filled since the last run
        self._ops = NumpyOps(
            key.kernel,
            trace=getattr(session, "trace", None),
            validate=self._debug,
        )
        #: np.float64 buffers allocated while compiling (operands, product,
        #: workspace levels) — constant afterwards.
        self.buffers_allocated = 0
        self._table = _step_table(key.variant, resolve_memory(key.memory))
        self.tilings: tuple[Tiling, Tiling, Tiling] | None = key.policy.plan(
            key.m, key.k, key.n
        )
        if cap is not None and self._table.in_place:
            raise PlanError(
                f"the batched path cannot use memory={self._table.name!r} "
                "(it would clobber the pooled operand stacks)"
            )
        if cap is not None and self.tilings is None:
            raise PlanError(
                f"{key.m}x{key.k}x{key.n} needs the panelled path; "
                "the batched path serves well-behaved tilings only"
            )
        self._a_mm = self._b_mm = self._c_mm = None
        self._relabeled = (False, False)
        self._workspace = None
        self._rezero_operands = False
        self._padded_stacks: tuple = ()  # stacked operands with a pad
        self._pad_n = None  # batch size their pads are zero for; None: all
        self._panels = None
        self._panel_plans = None
        if self.tilings is not None:
            self._compile_well_behaved()
        else:
            self._compile_panels()

    # ------------------------------------------------------------- compile

    def _compile_well_behaved(self) -> None:
        tm, tk, tn = self.tilings
        key = self.key
        table = self._table
        if table.in_place and tm.depth > 0 and not (
            tm.tile == tk.tile == tn.tile
        ):
            raise PlanError(
                f"memory={table.name!r} needs uniform tile geometry; the "
                f"policy chose tiles {tm.tile}/{tk.tile}/{tn.tile} for "
                f"{key.m}x{key.k}x{key.n}"
            )
        # Operand pads are zeroed here, once; every later conversion uses
        # zero_pad=False and writes only the logical region.
        #
        # A transposed operand of a Winograd plan is served by quadrant
        # *relabeling*: its Morton buffer keeps the operand's native
        # orientation (so the dense->Morton conversion is the same
        # straight copy a non-transposed run pays — zero extra passes)
        # and the executor descends it in relabeled order.  Strassen and
        # ip_overwrite plans are not relabel-threaded; they keep the
        # legacy transpose-fused conversion.
        dt = key.spec.np_dtype
        relabel_ok = key.variant == "winograd" and not table.in_place
        ra = bool(key.spec.trans_a and relabel_ok)
        rb = bool(key.spec.trans_b and relabel_ok)
        self._relabeled = (ra, rb)
        # Stacks are large power-of-two-multiple allocations; distinct
        # stagger indices keep same-item rows of A/B/C (and the workspace
        # buffers, which continue the sequence) from ever landing
        # cache-set-congruent — the paper's Section 4 conflict problem
        # resurfacing at the batch level.  A single item's buffers stay
        # plain allocations: offsets growing with the buffer count would
        # add up to 1 MiB of never-touched bytes to a deep plan.
        stagger = 0 if self.cap is None else 1
        a_dims = (key.k, key.m, tk, tm) if ra else (key.m, key.k, tm, tk)
        b_dims = (key.n, key.k, tn, tk) if rb else (key.k, key.n, tk, tn)
        self._a_mm = MortonMatrix.zeros(*a_dims, dt, cap=self.cap, stagger=stagger)
        self._b_mm = MortonMatrix.zeros(*b_dims, dt, cap=self.cap, stagger=2 * stagger)
        self._c_mm = MortonMatrix.empty(
            key.m, key.n, tm, tn, dt, cap=self.cap, stagger=3 * stagger
        )
        self.buffers_allocated += 3
        # ip_overwrite leaves garbage in the operand pads after every
        # execution; such plans must re-zero A/B before each conversion.
        self._rezero_operands = table.in_place and (
            self._a_mm.size > key.m * key.k or self._b_mm.size > key.k * key.n
        )
        if self.cap is not None:
            self._padded_stacks = tuple(
                mm for mm in (self._a_mm, self._b_mm)
                if mm.size > mm.rows * mm.cols
            )
        self._tiles = (tm.tile, tk.tile, tn.tile)
        self._depth = tm.depth
        self._workspace = table.workspace(
            tm.depth, *self._tiles, dtype=dt, cap=self.cap, stagger=4 * stagger
        )
        self.buffers_allocated += self._workspace.buffer_count

    def _compile_panels(self) -> None:
        key = self.key
        policy = key.policy
        self._panels = plan_panels(key.m, key.k, key.n, policy.tile_range) \
            if policy.tile_range else plan_panels(key.m, key.k, key.n)
        # One sub-plan per panel geometry, shared through the session's
        # cache (panels of equal size — the common case — compile once).
        self._panel_plans = []
        for panel in self._panels:
            dims = (panel.m1 - panel.m0, panel.k1 - panel.k0, panel.n1 - panel.n0)
            if policy.plan(*dims) is None:
                # Degenerate residue (e.g. a 1-wide strip): conventional
                # product, nothing to pool.
                self._panel_plans.append(None)
            else:
                self._panel_plans.append(
                    self.session.plan(
                        *dims,
                        op_a=OpKind.NOTRANS,
                        op_b=OpKind.NOTRANS,
                        policy=policy,
                        kernel=key.kernel,
                        variant=key.variant,
                        memory=key.memory,
                        dtype=key.spec.dtype,
                    )
                )

    # ------------------------------------------------------------- execute

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        timings: PhaseTimings | None = None,
    ) -> np.ndarray:
        """``C <- alpha * op(A) . op(B) + beta * C`` with this plan's spec.

        The transposition ops, scaling factors and dtype are the plan's
        (``alpha``/``beta`` default to the spec's values; passing
        different ones raises :class:`PlanError` — compile a plan for the
        new spec instead, the scales are baked into this one's U-adds and
        epilogue).  Operand shapes must produce exactly the planned
        ``(m, k, n)`` (:class:`ShapeError` otherwise).
        """
        spec = self.key.spec
        if alpha is not None and float(alpha) != spec.alpha:
            raise PlanError(
                f"alpha={alpha} does not match this plan's spec "
                f"(alpha={spec.alpha}); plan the new spec instead"
            )
        if beta is not None and float(beta) != spec.beta:
            raise PlanError(
                f"beta={beta} does not match this plan's spec "
                f"(beta={spec.beta}); plan the new spec instead"
            )
        p = GemmProblem.create(
            a, b, trans_a=spec.trans_a, trans_b=spec.trans_b,
            alpha=spec.alpha, beta=spec.beta, c=c, dtype=spec.dtype,
        )
        return self.execute_problem(p, c=c, timings=timings)

    def execute_problem(
        self,
        p: GemmProblem,
        c: np.ndarray | None = None,
        timings: PhaseTimings | None = None,
    ) -> np.ndarray:
        """Run a pre-validated :class:`GemmProblem` through the plan."""
        key = self.key
        spec = key.spec
        if self.cap is not None:
            raise PlanError(
                f"this plan stacks {self.cap} items; run them through "
                "execute_batch"
            )
        if (p.m, p.k, p.n) != (key.m, key.k, key.n):
            raise ShapeError(
                f"operands give GEMM dims {(p.m, p.k, p.n)}, but this plan "
                f"is compiled for {(key.m, key.k, key.n)}"
            )
        trans = (p.op_a is OpKind.TRANS, p.op_b is OpKind.TRANS)
        if trans != (spec.trans_a, spec.trans_b):
            raise PlanError(
                f"ops {(p.op_a.value, p.op_b.value)} do not match the plan "
                f"spec's transposes {(spec.trans_a, spec.trans_b)}"
            )
        if (p.alpha, p.beta) != (spec.alpha, spec.beta):
            raise PlanError(
                f"alpha/beta {(p.alpha, p.beta)} do not match the plan "
                f"spec's {(spec.alpha, spec.beta)}; plan the new spec instead"
            )
        rec = PhaseTimings()
        extras = _ExecExtras()
        if self.tilings is not None:
            # alpha is folded into the recursion's final U-adds and beta
            # into the output conversion — no separate scaling pass.  A
            # caller C of the computation dtype receives the conversion
            # directly; beta != 0 guarantees that (GemmProblem.create
            # rejects a mismatched-dtype C when beta != 0).
            c_out = c if c is not None and c.dtype == spec.np_dtype else None
            d = self._well_behaved_product(
                p.a, p.b,
                transpose_a=(p.op_a is OpKind.TRANS),
                transpose_b=(p.op_b is OpKind.TRANS),
                rec=rec,
                extras=extras,
                c_out=c_out,
            )
            if timings is not None:
                timings.to_morton += rec.to_morton
                timings.compute += rec.compute
                timings.from_morton += rec.from_morton
            self.session._record_execution(self, rec, extras)
            if c is not None and d is not c:
                c[...] = d
                return c
            return d
        d = self._panelled_product(p, rec, extras)
        rec.panels = len(self._panels)
        if timings is not None:
            timings.to_morton += rec.to_morton
            timings.compute += rec.compute
            timings.from_morton += rec.from_morton
            timings.panels = rec.panels
        self.session._record_execution(self, rec, extras)
        # Panelled plans accumulate sub-products into one dense D and keep
        # the legacy post-scaling (per-panel alpha folding would change
        # the bit pattern of the accumulation).
        result = p.apply_scaling(d, c)
        if c is not None and result is not c:
            c[...] = result
            return c
        return result

    def _well_behaved_product(
        self, a, b, transpose_a: bool, transpose_b: bool, rec: PhaseTimings,
        extras: "_ExecExtras | None" = None,
        c_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One conversion-recursion-conversion pass through the pooled buffers.

        ``c_out`` is the caller's computation-dtype output array, when it
        has one: the final conversion writes into it directly, fusing the
        spec's ``beta`` accumulate into the same sweep.  Without it the
        product lands in a fresh dense array (spec ``beta`` must be 0 —
        :meth:`execute_problem` guarantees a ``c_out`` otherwise).
        Panelled parents call this on their sub-plans with everything
        defaulted (plain product, spec-free).
        """
        key = self.key
        tr = self._ops.trace
        relabel_a, relabel_b = self._relabeled
        with self._lock:
            if self._debug:
                self._debug_pre()
            fused0 = self._ops.fused_adds
            if self._rezero_operands:
                # A previous ip_overwrite execution left garbage in the
                # operand pads; the zero_pad=False conversion below only
                # rewrites logical elements.
                self._a_mm.buf.fill(0.0)
                self._b_mm.buf.fill(0.0)
            # A relabel-served transpose converts the operand in its
            # native orientation (a straight copy); the executor reads
            # the buffer in relabeled order.
            if tr is not None and tr.enabled:
                if relabel_a:
                    tr.emit("relabel", label="a")
                if relabel_b:
                    tr.emit("relabel", label="b")
            t0 = time.perf_counter()
            dense_to_morton(
                a, self._a_mm, transpose=transpose_a and not relabel_a,
                zero_pad=False,
            )
            ta = time.perf_counter()
            dense_to_morton(
                b, self._b_mm, transpose=transpose_b and not relabel_b,
                zero_pad=False,
            )
            if tr is not None and tr.enabled:
                tb = time.perf_counter()
                tr.emit("convert", label="a", seconds=ta - t0)
                tr.emit("convert", label="b", seconds=tb - ta)
            t1 = time.perf_counter()
            if self._debug:
                # Phase boundary: operands are converted, compute has not
                # started.  Both pads must be exactly zero here (the
                # ip_overwrite re-zero above included).
                check_pad_zero(self._a_mm, "a")
                check_pad_zero(self._b_mm, "b")
            self._table.execute(
                self._a_mm.buf, self._b_mm.buf, self._c_mm.buf, self._tiles,
                self._depth, self._ops, self._workspace, key.spec.alpha,
                self._relabeled,
            )
            t2 = time.perf_counter()
            beta = key.spec.beta if c_out is not None else 0.0
            d = morton_to_dense(self._c_mm, out=c_out, beta=beta)
            t3 = time.perf_counter()
            if tr is not None and tr.enabled:
                tr.emit("convert", label="c", seconds=t3 - t2)
                if beta != 0.0:
                    tr.emit("accumulate", label="c", beta=float(beta))
            if extras is not None:
                extras.fused_adds += self._ops.fused_adds - fused0
            if self._debug:
                self._debug_post()
        rec.to_morton += t1 - t0
        rec.compute += t2 - t1
        rec.from_morton += t3 - t2
        return d

    def execute_batch(
        self,
        problems: list[GemmProblem],
        cs: list,
        timings: PhaseTimings | None = None,
        indices=None,
    ) -> list[np.ndarray]:
        """Run validated same-geometry problems through one stacked recursion.

        Needs a stacked plan and at most ``cap`` problems, which are
        interleaved by their count ``n`` over the first ``n`` item
        lengths of each stack.  ``cs[i]`` is item ``i``'s output operand
        (or ``None``); results come back in input order with full
        per-item ``alpha``/``beta`` semantics applied.

        ``indices`` maps chunk positions back to the *caller's* item
        numbering (``indices[i]`` is the input index of ``problems[i]``;
        defaults to ``0..n-1``).  Any failure attributable to one item —
        geometry validation, output scaling — raises
        :class:`repro.errors.BatchItemError` carrying that input index
        with the original exception chained; a multi-item failure reports
        the smallest affected index.  Whatever happens, the pooled stacks
        are left quiescent (the lock is released only at phase
        boundaries), so the plan stays reusable after an error.
        """
        key = self.key
        spec = key.spec
        n_items = len(problems)
        if n_items == 0:
            return []
        if indices is None:
            indices = range(n_items)
        if self.cap is None:
            raise PlanError("a single-item plan has no batch axis; use execute")
        if n_items > self.cap:
            raise PlanError(
                f"batch of {n_items} exceeds this plan's capacity {self.cap}"
            )
        for i, p in enumerate(problems):
            if (p.m, p.k, p.n) != (key.m, key.k, key.n):
                cause = ShapeError(
                    f"operands give GEMM dims {(p.m, p.k, p.n)}, but this "
                    f"batch plan is compiled for {(key.m, key.k, key.n)}"
                )
                raise BatchItemError(indices[i], cause) from cause
            trans = (p.op_a is OpKind.TRANS, p.op_b is OpKind.TRANS)
            if trans != (spec.trans_a, spec.trans_b):
                cause = PlanError(
                    f"ops {(p.op_a.value, p.op_b.value)} do not match the "
                    f"plan spec's transposes {(spec.trans_a, spec.trans_b)}"
                )
                raise BatchItemError(indices[i], cause) from cause
            # alpha is folded into the one shared recursion, so it cannot
            # vary per item; beta is a per-item epilogue and may.
            if p.alpha != spec.alpha:
                cause = PlanError(
                    f"alpha={p.alpha} does not match the batch plan spec's "
                    f"alpha={spec.alpha}"
                )
                raise BatchItemError(indices[i], cause) from cause
        rec = PhaseTimings()
        extras = _ExecExtras()
        relabel_a, relabel_b = self._relabeled
        tr = self._ops.trace
        with self._lock:
            if self._debug:
                self._debug_pre()
            fused0 = self._ops.fused_adds
            self._ops.items = n_items
            if tr is not None and tr.enabled:
                if relabel_a:
                    tr.emit("relabel", label="batch-a", items=n_items)
                if relabel_b:
                    tr.emit("relabel", label="batch-b", items=n_items)
            t0 = time.perf_counter()
            if self._padded_stacks and n_items != self._pad_n:
                # Pad positions move with n (item i's tile at leaf l sits
                # at (l*n + i)*T): re-zero the prefix this batch occupies,
                # once per change of n; conversions write logical elements
                # only.
                if self._pad_n is not None:
                    for mm in self._padded_stacks:
                        mm.buf[: n_items * mm.size].fill(0.0)
                self._pad_n = n_items
            dense_to_morton_batch(
                [p.a for p in problems], self._a_mm,
                transpose=spec.trans_a and not relabel_a,
            )
            dense_to_morton_batch(
                [p.b for p in problems], self._b_mm,
                transpose=spec.trans_b and not relabel_b,
            )
            t1 = time.perf_counter()
            if tr is not None and tr.enabled:
                tr.emit(
                    "convert", label="batch-in", seconds=t1 - t0,
                    items=n_items,
                )
            if self._debug:
                # Phase boundary: every occupied item's pad must be
                # exactly zero before the shared recursion runs over it.
                for i in range(n_items):
                    for mm, name in ((self._a_mm, "a"), (self._b_mm, "b")):
                        check_pad_zero(
                            mm, f"{name}[{indices[i]}]", item=i, n_items=n_items
                        )
            a, b, c = (
                mm.buf[: n_items * mm.size]
                for mm in (self._a_mm, self._b_mm, self._c_mm)
            )
            self._table.execute(
                a, b, c, self._tiles, self._depth, self._ops, self._workspace,
                spec.alpha, self._relabeled,
            )
            t2 = time.perf_counter()
            if spec.beta == 0.0:
                # Stacked copy to fresh dense arrays; per-item beta (a
                # directly-invoked batch may carry one) is applied in the
                # post-lock epilogue below.
                outs = morton_to_dense_batch(self._c_mm, n_items)
                results = first_err = None
            else:
                # The spec's accumulate: each item's product is folded
                # into its caller C in one fused scale-and-add sweep of
                # the conversion — never a separate full-matrix pass.
                outs = None
                results, first_err = self._fused_convert_out(
                    problems, cs, indices
                )
            t3 = time.perf_counter()
            if tr is not None and tr.enabled:
                tr.emit(
                    "convert", label="batch-out", seconds=t3 - t2,
                    items=n_items,
                )
                if spec.beta != 0.0:
                    tr.emit(
                        "accumulate", label="batch-c",
                        beta=float(spec.beta), items=n_items,
                    )
            extras.fused_adds = self._ops.fused_adds - fused0
            if self._debug:
                self._debug_post()
        rec.to_morton = t1 - t0
        rec.compute = t2 - t1
        rec.from_morton = t3 - t2
        if timings is not None:
            timings.to_morton += rec.to_morton
            timings.compute += rec.compute
            timings.from_morton += rec.from_morton
        self.session._record_execution(self, rec, extras, items=n_items)
        if results is None:
            # beta == 0 epilogue: alpha is already folded into the
            # recursion, so only the per-item beta/copy-back remains.
            results = []
            first_err = None
            for i, (p, c, d) in enumerate(zip(problems, cs, outs)):
                try:
                    if p.beta != 0.0:
                        c *= p.beta
                        c += d
                        r = c
                    elif c is not None:
                        c[...] = d
                        r = c
                    else:
                        r = d
                except Exception as exc:  # noqa: BLE001 - re-raised with index
                    # Finish the remaining items (their outputs are
                    # already computed) before reporting the smallest
                    # failing index.
                    if first_err is None:
                        err = BatchItemError(indices[i], exc)
                        err.__cause__ = exc
                        first_err = err
                    results.append(None)
                    continue
                results.append(r)
        if first_err is not None:
            raise first_err
        return results

    def _fused_convert_out(self, problems, cs, indices):
        """Per-item fused beta conversion (lock held); returns results/error.

        Items whose ``beta`` is 0 (or whose C cannot take the computation
        dtype directly) fall back to a fresh gather plus copy-back; a
        failing item (e.g. a read-only C) is recorded and the rest still
        convert, keeping the pooled stacks quiescent.
        """
        dt = self.key.spec.np_dtype
        n = len(problems)
        results = []
        first_err: BatchItemError | None = None
        for i, p in enumerate(problems):
            c = cs[i]
            try:
                if c is not None and (p.beta != 0.0 or c.dtype == dt):
                    r = morton_to_dense(
                        self._c_mm, out=c, beta=p.beta, item=i, n_items=n
                    )
                else:
                    d = morton_to_dense(self._c_mm, item=i, n_items=n)
                    if c is not None:
                        c[...] = d
                        r = c
                    else:
                        r = d
            except Exception as exc:  # noqa: BLE001 - re-raised with index
                if first_err is None:
                    err = BatchItemError(indices[i], exc)
                    err.__cause__ = exc
                    first_err = err
                results.append(None)
                continue
            results.append(r)
        return results, first_err

    # ----------------------------------------------------- debug invariants

    def _debug_pre(self) -> None:
        """Phase-boundary checks before buffer reuse (lock held).

        Verifies the pooled scratch is exactly as the previous execution's
        :meth:`_debug_post` left it — wholly poison-filled.  A violation
        means something wrote to this plan's buffers *between* executions,
        which the per-plan locking discipline must never allow.
        """
        if self._poisoned and self._workspace is not None:
            check_quiescent(self._workspace, "workspace")

    def _debug_post(self) -> None:
        """Poison-fill the scratch after an execution (lock held).

        Every scratch buffer is write-before-read within an execution, so
        the fill never changes results — it only arms the next
        :meth:`_debug_pre` quiescence check.
        """
        if self._workspace is not None:
            self._workspace.poison()
        self._poisoned = True

    def _panelled_product(
        self, p: GemmProblem, rec: PhaseTimings,
        extras: "_ExecExtras | None" = None,
    ) -> np.ndarray:
        opa = p.op_a_view
        opb = p.op_b_view
        d = np.zeros((p.m, p.n), dtype=self.key.spec.np_dtype, order="F")
        for panel, sub in zip(self._panels, self._panel_plans):
            pa = opa[panel.m0 : panel.m1, panel.k0 : panel.k1]
            pb = opb[panel.k0 : panel.k1, panel.n0 : panel.n1]
            if sub is None:
                part = pa @ pb
            else:
                part = sub._well_behaved_product(
                    pa, pb, transpose_a=False, transpose_b=False, rec=rec,
                    extras=extras,
                )
            if panel.accumulate:
                d[panel.m0 : panel.m1, panel.n0 : panel.n1] += part
            else:
                d[panel.m0 : panel.m1, panel.n0 : panel.n1] = part
        return d

    # ----------------------------------------------------------- accounting

    @property
    def scratch_bytes(self) -> int:
        """Recursion scratch bytes this plan's workspace holds.

        Excludes the Morton operand/product buffers — this is exactly the
        *extra* memory the selected ``memory`` schedule is accountable
        for: the geometric series over recursion levels (classic
        ``|A|/4 + |B|/4 + 2|C|/4`` per level, two_temp
        ``max(|A|,|C|)/4 + |B|/4``, ip_overwrite zero), times ``cap`` for
        a stacked plan.  Panelled plans report the sum over their
        distinct sub-plans.
        """
        if self.tilings is None:
            seen: set[int] = set()
            total = 0
            for sub in self._panel_plans or ():
                if sub is not None and id(sub) not in seen:
                    seen.add(id(sub))
                    total += sub.scratch_bytes
            return total
        return self._workspace.nbytes

    @property
    def _own_scratch_bytes(self) -> int:
        """Scratch this plan itself holds (sub-plans account separately)."""
        if self.tilings is None:
            return 0
        return self.scratch_bytes

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by this plan's pooled buffers and scratch."""
        total = 0
        for mm in (self._a_mm, self._b_mm, self._c_mm):
            if mm is not None:
                total += mm.buf.nbytes
        if self._workspace is not None:
            total += self._workspace.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.key
        shape = "panelled" if self.tilings is None else "well-behaved"
        stack = "" if self.cap is None else f" x{self.cap}"
        return (
            f"CompiledPlan({key.m}x{key.k}x{key.n}{stack}, {key.spec}, "
            f"{key.variant}, {key.memory}, {shape})"
        )
