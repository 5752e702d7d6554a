"""Compiled GEMM plans: frozen geometry decisions plus pooled buffers.

A :class:`CompiledPlan` captures everything :func:`repro.modgemm` used to
recompute per call for a fixed problem geometry:

* the ``(Tiling, Tiling, Tiling)`` from :meth:`TruncationPolicy.plan`
  (or, for highly rectangular problems, the Figure-4 panel decomposition
  and one sub-plan per panel geometry);
* the Morton-order operand and product buffers, allocated once with their
  pads zeroed once — repeated conversions then touch only logical
  elements (``dense_to_morton(..., zero_pad=False)``);
* the per-level :class:`Workspace` (sequential schedule) or the
  :class:`TaskScratch` plus prebuilt task graph (``tasks`` schedule, see
  :mod:`repro.core.scheduler`) shared across executions;
* for deep tilings, per-operand :class:`ConversionTable` index tables
  that turn layout conversion into vectorised gather/scatter copies.  The
  plan *calibrates* each conversion site: execution 1 times the tile
  loop, execution 2 times the indexed path, and the winner serves every
  later execution (a losing table is freed immediately);
* the resolved leaf kernel and recursion variant.

``plan.execute(a, b, ...)`` then runs the full BLAS contract against the
frozen geometry, allocating only the dense output.  Plans serialise their
own executions with an internal lock, so one plan shared by many threads
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
from ..core.parallel import TaskScratch, build_winograd_graph, run_batch_stripes
from ..core.rectangular import plan_panels
from ..core.scheduler import Schedule, TaskGraph
from ..core.strassen import STRASSEN_TABLE, strassen_multiply
from ..core.truncation import TruncationPolicy
from ..core.winograd import (
    CONVERT_QUADS_A,
    CONVERT_QUADS_B,
    FUSED_PACKS_A,
    FUSED_PACKS_B,
    SCHEDULE_TABLES,
    StepTable,
    resolve_memory,
    winograd_multiply,
)
from ..core.workspace import Workspace
from ..errors import BatchItemError, InvariantError, KernelError, PlanError, ShapeError
from ..layout.convert import (
    ConversionTable,
    calibration_key,
    conversion_table,
    dense_to_morton,
    dense_to_morton_batch,
    dense_to_morton_quadrants,
    morton_to_dense,
    morton_to_dense_batch,
    pack_morton_quarter,
)
from ..layout.matrix import BatchMortonMatrix, MortonMatrix
from ..layout.padding import Tiling
from ..layout.relabel import quadrant_slices, transposed_view
from ..observe.validate import check_pad_zero, check_quiescent
from .spec import GemmSpec

__all__ = [
    "PlanKey", "CompiledPlan", "BatchPlan", "batch_size_class",
    "resolve_variant", "VARIANTS", "BATCH_CAP_MAX",
]


def _step_table(variant: str, memory: str) -> StepTable:
    """The step table a plan of this variant and memory schedule runs."""
    return STRASSEN_TABLE if variant == "strassen" else SCHEDULE_TABLES[memory]


#: Largest stacked-batch capacity class; bigger batches execute in chunks
#: of this size, so one cached :class:`BatchPlan` serves any batch length
#: while its pooled stacks stay bounded (3 operand stacks + workspace).
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

#: Shallowest tiling depth worth a conversion index table: below this the
#: tile loop's per-tile Python overhead is already negligible.
CONVERT_TABLE_MIN_DEPTH = 3

#: Largest logical element count to build a table for (int64 offsets, two
#: ravellings -> 16 bytes/element of pooled index memory).
CONVERT_TABLE_MAX_ELEMS = 1 << 21


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
    execution :class:`Schedule`, the memory schedule (see
    :data:`repro.core.winograd.MEMORY_SCHEDULES`) and the full operation
    :class:`~repro.engine.spec.GemmSpec`.  The spec is load-bearing:
    ``alpha`` is baked into a plan's final U-adds (and its prebuilt task
    graph), ``beta`` into its output-conversion epilogue, and the
    transpose flags decide each operand buffer's *orientation* — so two
    calls differing in any of them genuinely need different compiled
    artefacts.
    """

    m: int
    k: int
    n: int
    policy: TruncationPolicy
    kernel: LeafKernel
    variant: str
    schedule: Schedule
    memory: str = "classic"
    spec: GemmSpec = GemmSpec()

    @property
    def parallel(self) -> bool:
        """True when the plan executes on the task scheduler."""
        return self.schedule.parallel

    # Accessors mirroring the pre-spec field layout, so call sites (and
    # the BLAS boundary) keep reading key.op_a / key.dtype / ...

    @property
    def op_a(self) -> OpKind:
        return OpKind.TRANS if self.spec.trans_a else OpKind.NOTRANS

    @property
    def op_b(self) -> OpKind:
        return OpKind.TRANS if self.spec.trans_b else OpKind.NOTRANS

    @property
    def trans_a(self) -> bool:
        return self.spec.trans_a

    @property
    def trans_b(self) -> bool:
        return self.spec.trans_b

    @property
    def alpha(self) -> float:
        return self.spec.alpha

    @property
    def beta(self) -> float:
        return self.spec.beta

    @property
    def dtype(self) -> str:
        return self.spec.dtype

    @property
    def np_dtype(self) -> np.dtype:
        """The computation dtype as a numpy dtype object."""
        return self.spec.np_dtype


class _ConvertSite:
    """Adaptive loop-vs-indexed choice for one conversion site of a plan.

    State machine: execution 1 runs the tile loop and records the
    baseline; execution 2 runs the indexed path; the faster one then
    serves every later execution.  ``observe`` returns the seconds saved
    relative to the baseline whenever the indexed path ran (negative if
    a run regressed — the counters stay honest).

    A site can also be *preseeded* from a plan store: constructing it
    with ``mode="indexed"`` replays a persisted decision with no trial
    executions at all, and ``on_decide`` (when a live calibration does
    run) reports the final verdict so the store can persist it for the
    next plan/session with this geometry.
    """

    __slots__ = ("table", "baseline", "mode", "on_decide")

    def __init__(
        self,
        table: ConversionTable,
        mode: str = "baseline",
        baseline: float = 0.0,
        on_decide=None,
    ) -> None:
        self.table = table
        self.baseline = baseline
        self.mode = mode  # "baseline" -> "trial" -> "indexed" | "loop"
        self.on_decide = on_decide

    def pick(self) -> ConversionTable | None:
        """Table to use for this execution (``None`` = tile loop)."""
        return self.table if self.mode in ("trial", "indexed") else None

    def observe(self, elapsed: float) -> float:
        """Fold in this execution's conversion time; return seconds saved."""
        if self.mode == "baseline":
            self.baseline = elapsed
            self.mode = "trial"
            return 0.0
        if self.mode == "trial":
            if elapsed <= self.baseline:
                self.mode = "indexed"
                saved = self.baseline - elapsed
            else:
                self.mode = "loop"
                self.table = None  # free the losing table
                saved = 0.0
            if self.on_decide is not None:
                self.on_decide(self.mode, self.baseline)
            return saved
        if self.mode == "indexed":
            return self.baseline - elapsed
        return 0.0


class _ExecExtras:
    """Per-execution scheduler/conversion counters, folded into the session."""

    __slots__ = (
        "tasks_run", "worker_busy", "graph_wall", "pool_workers",
        "indexed_conversions", "convert_seconds_saved", "fused_adds",
        "fused_packs",
    )

    def __init__(self) -> None:
        self.tasks_run = 0
        self.worker_busy = 0.0
        self.graph_wall = 0.0
        self.pool_workers = 0
        self.indexed_conversions = 0
        self.convert_seconds_saved = 0.0
        self.fused_adds = 0
        self.fused_packs = 0


class CompiledPlan:
    """A ready-to-execute GEMM for one frozen problem geometry.

    Created by :meth:`GemmSession.plan`; execute with
    :meth:`execute` (full dgemm semantics) as many times as desired.
    """

    def __init__(self, key: PlanKey, session) -> None:
        self.key = key
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
        #: workspace levels, task scratch) — constant afterwards.
        self.buffers_allocated = 0
        self.tilings: tuple[Tiling, Tiling, Tiling] | None = key.policy.plan(
            key.m, key.k, key.n
        )
        self._a_mm = self._b_mm = self._c_mm = None
        self._a_eff = self._b_eff = None
        self._relabel_a = self._relabel_b = False
        self._workspace: Workspace | None = None
        self._tscratch: TaskScratch | None = None
        self._graph: TaskGraph | None = None
        self._rezero_operands = False
        self._sites: dict[str, _ConvertSite] = {}
        self._fused = False
        self._ftables: dict[str, ConversionTable] = {}
        self._fdsts: dict[str, np.ndarray] = {}
        self._pend = None
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
        memory = resolve_memory(key.memory)
        table = _step_table(key.variant, memory)
        if table.in_place and tm.depth > 0 and not (
            tm.tile == tk.tile == tn.tile
        ):
            raise PlanError(
                f"memory={memory!r} needs uniform tile geometry; the "
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
        # and the recursion sees it through a TransposedView.  Strassen
        # and ip_overwrite plans are not relabel-threaded; they keep the
        # legacy transpose-fused conversion.
        dt = key.np_dtype
        relabel_ok = key.variant == "winograd" and not table.in_place
        self._relabel_a = bool(key.trans_a and relabel_ok)
        self._relabel_b = bool(key.trans_b and relabel_ok)
        if self._relabel_a:
            self._a_mm = MortonMatrix.zeros(key.k, key.m, tk, tm, dtype=dt)
            self._a_eff = transposed_view(self._a_mm)
        else:
            self._a_mm = MortonMatrix.zeros(key.m, key.k, tm, tk, dtype=dt)
            self._a_eff = self._a_mm
        if self._relabel_b:
            self._b_mm = MortonMatrix.zeros(key.n, key.k, tn, tk, dtype=dt)
            self._b_eff = transposed_view(self._b_mm)
        else:
            self._b_mm = MortonMatrix.zeros(key.k, key.n, tk, tn, dtype=dt)
            self._b_eff = self._b_mm
        self._c_mm = MortonMatrix.empty(key.m, key.n, tm, tn, dtype=dt)
        self.buffers_allocated += 3
        # ip_overwrite leaves garbage in the operand pads after every
        # execution; such plans must re-zero A/B before each conversion.
        self._rezero_operands = table.in_place and (
            self._a_mm.size > key.m * key.k or self._b_mm.size > key.k * key.n
        )
        depth = tm.depth
        sched = key.schedule
        # Fused convert-and-add packing: the top level's S1/S3/T1/T3 sums
        # are produced *during* the dense->Morton gather (one read of each
        # source quadrant yields both the converted quadrant and the
        # packed sum), so the recursion skips its four standalone
        # top-level add passes and one quadrant copy per operand.
        # Requires the plain Morton permutation (no relabeled transposes
        # — dense-side transposes fold into the gather as usual) and an
        # index table per operand.  The gather is elementwise, so fusion
        # only pays where the table already beats the tile loop — the
        # same CONVERT_TABLE_MIN_DEPTH regime as the adaptive sites (at
        # shallow depth the loop's few large contiguous tile copies win
        # by a wide margin); ``fused_pack="always"`` overrides the depth
        # threshold for any depth >= 1 (tests, A/B measurement).
        fmode = getattr(self.session, "fused_pack", True)
        self._fused = (
            bool(fmode)
            and key.variant == "winograd"
            and depth >= (1 if fmode == "always" else CONVERT_TABLE_MIN_DEPTH)
            and not self._relabel_a
            and not self._relabel_b
            and self._a_mm.rows * self._a_mm.cols <= CONVERT_TABLE_MAX_ELEMS
            and self._b_mm.rows * self._b_mm.cols <= CONVERT_TABLE_MAX_ELEMS
        )
        self._ftables: dict[str, ConversionTable] = {}
        self._fdsts: dict[str, np.ndarray] = {}
        self._pend = None  # (a, trans_a, b, trans_b) of the running execute
        if sched.parallel and depth >= 1:
            self._tscratch = TaskScratch(
                tm.tile, tk.tile, tn.tile, depth,
                parallel_depth=sched.depth,
                workers=sched.workers or self.session._pool_size(),
                memory=memory,
                dtype=dt,
            )
            self.buffers_allocated += self._tscratch.buffer_count
            self._graph = build_winograd_graph(
                self._a_eff, self._b_eff, self._c_mm, self._tscratch,
                ops=self._ops, alpha=key.alpha,
                pack_a=self._graph_pack_a if self._fused else None,
                pack_b=self._graph_pack_b if self._fused else None,
            )
        else:
            self._workspace = table.workspace(
                depth, tm.tile, tk.tile, tn.tile, dtype=dt
            )
            self.buffers_allocated += self._workspace.buffer_count
        if self._fused:
            # Fused conversion always gathers through a table (the shared
            # module-level cache — several plans of one geometry reuse
            # it), so the a/b sites skip loop-vs-indexed calibration.
            for name, mm in (("a", self._a_mm), ("b", self._b_mm)):
                self._ftables[name] = conversion_table(
                    mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth
                )
            self._fdsts = self._pack_destinations(table)
        if depth >= CONVERT_TABLE_MIN_DEPTH:
            # A plan store, when the session has one, replays persisted
            # loop-vs-indexed verdicts: a "loop" record skips building the
            # O(n^2) table entirely, an "indexed" record preseeds the site
            # past both trial executions, and an unseen geometry gets an
            # ``on_decide`` hook that writes the live verdict back.  This
            # is what makes the calibration survive plan eviction — the
            # store, not the evicted plan object, owns the answer.
            store = getattr(self.session, "_plan_store", None)
            for name, mm in (("a", self._a_mm), ("b", self._b_mm),
                             ("c", self._c_mm)):
                if name in self._ftables:
                    continue
                if mm.rows * mm.cols > CONVERT_TABLE_MAX_ELEMS:
                    continue
                site_key = calibration_key(
                    mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth,
                    dtype=key.dtype,
                )
                cal = (
                    store.lookup_calibration(site_key)
                    if store is not None else None
                )
                if cal is not None and cal["mode"] == "loop":
                    continue  # the loop path won; no table, no trials
                table = ConversionTable(
                    mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth
                )
                if cal is not None:  # mode == "indexed"
                    self._sites[name] = _ConvertSite(
                        table, mode="indexed",
                        baseline=float(cal.get("baseline", 0.0)),
                    )
                elif store is not None:
                    self._sites[name] = _ConvertSite(
                        table,
                        on_decide=(
                            lambda mode, baseline, _sk=site_key:
                            store.record_calibration(_sk, mode, baseline)
                        ),
                    )
                else:
                    self._sites[name] = _ConvertSite(table)

    def _pack_destinations(self, table: StepTable) -> dict[str, np.ndarray]:
        """Flat quarter buffers receiving the four top-level packed sums.

        The schedule's table places them (:meth:`StepTable.pack_buffers`).
        The task graph keeps its own layout: S1/T1 in the A21/B12 quadrant
        slots, S3/T3 in its root ``s[2]``/``t[2]`` buffers.
        """
        if self._tscratch is None:
            return table.pack_buffers(
                self._a_mm, self._b_mm, self._c_mm, self._workspace
            )
        root = self._tscratch.root
        return {
            "S1": quadrant_slices(self._a_mm.buf)[2],
            "T1": quadrant_slices(self._b_mm.buf)[1],
            "S3": root.s[2].buf,
            "T3": root.t[2].buf,
        }

    def _fused_convert_side(
        self, name: str, dense, mm, quads, packs, transpose: bool,
        extras: "_ExecExtras | None",
    ) -> None:
        """Convert one operand's consumed quadrants, then pack its sums."""
        table = self._ftables[name]
        tr = self._ops.trace
        t0 = time.perf_counter()
        dense_to_morton_quadrants(
            dense, mm, quads, transpose=transpose, zero_pad=False,
            table=table,
        )
        if tr is not None and tr.enabled:
            tr.emit(
                "convert", label=name, seconds=time.perf_counter() - t0,
                indexed=True, fused=True,
            )
        for label, op, q0, q1 in packs:
            t0 = time.perf_counter()
            pack_morton_quarter(
                self._fdsts[label], dense, op, q0, q1, table,
                transpose=transpose,
            )
            if tr is not None and tr.enabled:
                tr.emit(
                    "pack", label=label, seconds=time.perf_counter() - t0
                )
        if extras is not None:
            extras.fused_packs += len(packs)

    # The graph's two root tasks (run on pool workers; the per-execute
    # dense operands are stashed in self._pend under the plan lock, which
    # is held for the whole execution).  Extras are folded in by the
    # caller after the graph completes — two concurrent pack tasks must
    # not race on one counter object.

    def _graph_pack_a(self) -> None:
        a, trans_a, _, _ = self._pend
        self._fused_convert_side(
            "a", a, self._a_mm, CONVERT_QUADS_A, FUSED_PACKS_A, trans_a,
            None,
        )

    def _graph_pack_b(self) -> None:
        _, _, b, trans_b = self._pend
        self._fused_convert_side(
            "b", b, self._b_mm, CONVERT_QUADS_B, FUSED_PACKS_B, trans_b,
            None,
        )

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
                        schedule=key.schedule,
                        memory=key.memory,
                        dtype=key.dtype,
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
        key = self.key
        if alpha is not None and float(alpha) != key.alpha:
            raise PlanError(
                f"alpha={alpha} does not match this plan's spec "
                f"(alpha={key.alpha}); plan the new spec instead"
            )
        if beta is not None and float(beta) != key.beta:
            raise PlanError(
                f"beta={beta} does not match this plan's spec "
                f"(beta={key.beta}); plan the new spec instead"
            )
        p = GemmProblem.create(
            a, b, op_a=key.op_a, op_b=key.op_b,
            alpha=key.alpha, beta=key.beta, c=c, dtype=key.dtype,
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
        if (p.m, p.k, p.n) != (key.m, key.k, key.n):
            raise ShapeError(
                f"operands give GEMM dims {(p.m, p.k, p.n)}, but this plan "
                f"is compiled for {(key.m, key.k, key.n)}"
            )
        if (p.op_a, p.op_b) != (key.op_a, key.op_b):
            raise PlanError(
                f"ops {(p.op_a.value, p.op_b.value)} do not match the plan's "
                f"{(key.op_a.value, key.op_b.value)}"
            )
        if (p.alpha, p.beta) != (key.alpha, key.beta):
            raise PlanError(
                f"alpha/beta {(p.alpha, p.beta)} do not match the plan "
                f"spec's {(key.alpha, key.beta)}; plan the new spec instead"
            )
        rec = PhaseTimings()
        extras = _ExecExtras()
        if self.tilings is not None:
            # alpha is folded into the recursion's final U-adds and beta
            # into the output conversion — no separate scaling pass.  A
            # caller C of the computation dtype receives the conversion
            # directly; beta != 0 guarantees that (GemmProblem.create
            # rejects a mismatched-dtype C when beta != 0).
            c_out = c if c is not None and c.dtype == key.np_dtype else None
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

    def _convert_site(
        self, name: str, extras: "_ExecExtras | None", run_loop, run_indexed
    ) -> None:
        """Run one conversion through the site's calibrated path choice."""
        site = self._sites.get(name)
        table = site.pick() if site is not None else None
        t0 = time.perf_counter()
        if table is None:
            run_loop()
        else:
            run_indexed(table)
        elapsed = time.perf_counter() - t0
        tr = self._ops.trace
        if tr is not None and tr.enabled:
            tr.emit(
                "convert", label=name, seconds=elapsed,
                indexed=table is not None,
            )
        if site is not None:
            saved = site.observe(elapsed)
            if table is not None and extras is not None:
                extras.indexed_conversions += 1
                extras.convert_seconds_saved += saved

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
        with self._lock:
            if self._debug:
                self._debug_pre()
            fused0 = self._ops.fused_adds
            pool = workers = None
            if self._graph is not None:
                pool = self.session._ensure_pool()
                workers = pool.workers
            if self._rezero_operands:
                # A previous ip_overwrite execution left garbage in the
                # operand pads; the zero_pad=False conversion below only
                # rewrites logical elements.
                self._a_mm.buf.fill(0.0)
                self._b_mm.buf.fill(0.0)
            # A relabel-served transpose converts the operand in its
            # native orientation (a straight copy); the recursion reads
            # the buffer through the compile-time TransposedView.
            conv_trans_a = transpose_a and not self._relabel_a
            conv_trans_b = transpose_b and not self._relabel_b
            if tr is not None and tr.enabled:
                if self._relabel_a:
                    tr.emit("relabel", label="a")
                if self._relabel_b:
                    tr.emit("relabel", label="b")
            t0 = time.perf_counter()
            if self._fused and self._graph is not None:
                # Conversion moves *into* the graph: the two root pack
                # tasks convert and pack their operand on pool workers,
                # overlapping the a/b sides (to_morton attributes ~0
                # here; the work lands in the graph's compute phase).
                self._pend = (a, conv_trans_a, b, conv_trans_b)
            elif self._fused:
                self._fused_convert_side(
                    "a", a, self._a_mm, CONVERT_QUADS_A, FUSED_PACKS_A,
                    conv_trans_a, extras,
                )
                self._fused_convert_side(
                    "b", b, self._b_mm, CONVERT_QUADS_B, FUSED_PACKS_B,
                    conv_trans_b, extras,
                )
            else:
                self._convert_site(
                    "a", extras,
                    lambda: dense_to_morton(
                        a, self._a_mm, transpose=conv_trans_a, zero_pad=False
                    ),
                    lambda tab: dense_to_morton(
                        a, self._a_mm, transpose=conv_trans_a, zero_pad=False,
                        table=tab, pool=pool, workers=workers or 1,
                    ),
                )
                self._convert_site(
                    "b", extras,
                    lambda: dense_to_morton(
                        b, self._b_mm, transpose=conv_trans_b, zero_pad=False
                    ),
                    lambda tab: dense_to_morton(
                        b, self._b_mm, transpose=conv_trans_b, zero_pad=False,
                        table=tab, pool=pool, workers=workers or 1,
                    ),
                )
            t1 = time.perf_counter()
            if self._debug and not self._fused:
                # Phase boundary: operands are converted, compute has not
                # started.  Both pads must be exactly zero here (the
                # ip_overwrite re-zero above included).  Fused plans skip
                # the check: their A21/B12 slots legitimately hold packed
                # sums whose support extends into the slot's pad region
                # (exactly the values the two-pass scratch sums held).
                check_pad_zero(self._a_mm, "a")
                check_pad_zero(self._b_mm, "b")
            if self._graph is not None:
                try:
                    run = pool.run(self._graph)
                finally:
                    self._pend = None
                if extras is not None:
                    extras.tasks_run += run.tasks
                    extras.worker_busy += run.busy
                    extras.graph_wall += run.wall
                    extras.pool_workers = run.workers
                    if self._fused:
                        extras.fused_packs += 4
            elif key.variant == "winograd":
                winograd_multiply(
                    self._a_eff, self._b_eff, self._c_mm,
                    ops=self._ops, workspace=self._workspace,
                    memory=key.memory, alpha=key.alpha,
                    prepacked=self._fused,
                )
            else:
                strassen_multiply(
                    self._a_mm, self._b_mm, self._c_mm,
                    ops=self._ops, workspace=self._workspace,
                    alpha=key.alpha,
                )
            t2 = time.perf_counter()
            beta = key.beta if c_out is not None else 0.0
            out: list = []
            self._convert_site(
                "c", extras,
                lambda: out.append(morton_to_dense(
                    self._c_mm, out=c_out, beta=beta
                )),
                lambda tab: out.append(morton_to_dense(
                    self._c_mm, out=c_out, beta=beta,
                    table=tab, pool=pool, workers=workers or 1,
                )),
            )
            d = out[0]
            if beta != 0.0 and tr is not None and tr.enabled:
                tr.emit("accumulate", label="c", beta=float(beta))
            t3 = time.perf_counter()
            if extras is not None:
                extras.fused_adds += self._ops.fused_adds - fused0
            if self._debug:
                self._debug_post()
        rec.to_morton += t1 - t0
        rec.compute += t2 - t1
        rec.from_morton += t3 - t2
        return d

    # ----------------------------------------------------- debug invariants

    def _debug_pre(self) -> None:
        """Phase-boundary checks before buffer reuse (lock held).

        Verifies the pooled scratch is exactly as the previous execution's
        :meth:`_debug_post` left it — wholly poison-filled — and that every
        leaf workspace has been returned to its pool.  A violation means
        something wrote to this plan's buffers *between* executions, which
        the per-plan locking discipline must never allow.
        """
        if self._tscratch is not None and not (
            self._tscratch.workspace_pool.all_free
        ):
            raise InvariantError(
                "leaf workspace pool is not fully free between executions: "
                "a previous run leaked a workspace or a task is still "
                "holding one"
            )
        if self._poisoned:
            if self._workspace is not None:
                check_quiescent(self._workspace, "workspace")
            if self._tscratch is not None:
                check_quiescent(self._tscratch, "task-scratch")

    def _debug_post(self) -> None:
        """Poison-fill the scratch after an execution (lock held).

        Every scratch buffer is write-before-read within an execution, so
        the fill never changes results — it only arms the next
        :meth:`_debug_pre` quiescence check.
        """
        if self._workspace is not None:
            self._workspace.poison()
        if self._tscratch is not None:
            self._tscratch.poison()
        self._poisoned = True

    def _panelled_product(
        self, p: GemmProblem, rec: PhaseTimings,
        extras: "_ExecExtras | None" = None,
    ) -> np.ndarray:
        opa = p.op_a_view
        opb = p.op_b_view
        d = np.zeros((p.m, p.n), dtype=self.key.np_dtype, order="F")
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
        """Recursion scratch bytes this plan holds (workspace/task scratch).

        Excludes the Morton operand/product buffers and conversion tables
        — this is exactly the *extra* memory the selected ``memory``
        schedule is accountable for: the geometric series over recursion
        levels (classic ``|A|/4 + |B|/4 + 2|C|/4`` per level, two_temp
        ``max(|A|,|C|)/4 + |B|/4``, ip_overwrite zero), or the task-DAG
        expansion tree plus leaf workspace pool for parallel plans.
        Panelled plans report the sum over their distinct sub-plans.
        """
        if self.tilings is None:
            seen: set[int] = set()
            total = 0
            for sub in self._panel_plans or ():
                if sub is not None and id(sub) not in seen:
                    seen.add(id(sub))
                    total += sub.scratch_bytes
            return total
        if self._tscratch is not None:
            return self._tscratch.total_bytes
        if self._workspace is not None:
            return self._workspace.nbytes
        return 0

    @property
    def _own_scratch_bytes(self) -> int:
        """Scratch this plan itself holds (sub-plans account separately)."""
        if self.tilings is None:
            return 0
        return self.scratch_bytes

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by this plan's pooled buffers, scratch and tables."""
        total = 0
        for mm in (self._a_mm, self._b_mm, self._c_mm):
            if mm is not None:
                total += mm.buf.nbytes
        if self._workspace is not None:
            total += self._workspace.total_bytes
        if self._tscratch is not None:
            total += self._tscratch.total_bytes
        for site in self._sites.values():
            if site.table is not None:
                total += site.table.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.key
        shape = "panelled" if self.tilings is None else "well-behaved"
        sched = (
            f", tasks:{key.schedule.depth}" if key.schedule.parallel else ""
        )
        return (
            f"CompiledPlan({key.m}x{key.k}x{key.n}, "
            f"op=({key.op_a.value},{key.op_b.value}), {key.variant}"
            f"{sched}, {shape})"
        )


class BatchPlan:
    """A stacked-Morton execution plan for many same-geometry problems.

    Owns pooled batch-major stacks — operand/product
    :class:`BatchMortonMatrix` buffers of capacity ``cap`` (a
    :func:`batch_size_class`) plus a :class:`BatchWorkspace` — and executes
    whole batches through **one** Winograd/Strassen recursion: every
    addition is a single ufunc over ``(B, elems)`` slabs and every leaf
    product one batched ``matmul`` over a ``(B, T, T)`` stack.  Results
    are bit-identical to per-item :meth:`CompiledPlan.execute` — the
    recursion code and addition order are literally the same, only the
    leading batch axis differs.

    ``tasks`` schedules stripe the *batch axis* across the session's
    worker pool (contiguous row stripes with disjoint workspace rows)
    instead of expanding one item's recursion into a task DAG — many small
    problems parallelise better across items than within one.

    Conversion reuses one shared :class:`ConversionTable` per side,
    broadcast over the batch: each item is a single vectorised
    gather/scatter.  The first execution times a tile-loop conversion of
    item 0 per site as the baseline that ``batch_convert_seconds_saved``
    is measured against.

    Cached in the session's LRU alongside :class:`CompiledPlan`, keyed by
    ``(PlanKey, cap)``; eviction releases the stacks.  Requires a
    well-behaved tiling and ``memory != "ip_overwrite"`` (the batched
    recursion never clobbers operands — the pooled stacks' zero pads must
    survive across executions).
    """

    def __init__(self, key: PlanKey, cap: int, session) -> None:
        self.key = key
        self.cap = cap
        self.session = session
        self._lock = threading.Lock()
        self._cache_hit = False
        memory = resolve_memory(key.memory)
        table = _step_table(key.variant, memory)
        if table.in_place:
            raise PlanError(
                f"the batched path cannot use memory={memory!r} "
                "(it would clobber the pooled operand stacks)"
            )
        self.tilings = key.policy.plan(key.m, key.k, key.n)
        if self.tilings is None:
            raise PlanError(
                f"{key.m}x{key.k}x{key.n} needs the panelled path; "
                "the batched path serves well-behaved tilings only"
            )
        tm, tk, tn = self.tilings
        dt = key.np_dtype
        self._debug = bool(getattr(session, "debug", False))
        self._poisoned = False
        self._ops = NumpyOps(
            key.kernel,
            trace=getattr(session, "trace", None),
            validate=self._debug,
        )
        # Stacks are large power-of-two-multiple allocations; distinct
        # stagger indices keep same-item rows of A/B/C (and the workspace
        # buffers, which continue the sequence) from ever landing
        # cache-set-congruent — the paper's Section 4 conflict problem
        # resurfacing at the batch level.
        #
        # As on the per-item path, a transposed operand of a Winograd
        # plan keeps its stack in *native* orientation (straight-copy
        # conversion) and the striped recursion reads it through a
        # TransposedView; Strassen stays transpose-fused-conversion.
        self._relabel_a = bool(key.trans_a and key.variant == "winograd")
        self._relabel_b = bool(key.trans_b and key.variant == "winograd")
        if self._relabel_a:
            self._a = BatchMortonMatrix.zeros(
                cap, key.k, key.m, tk, tm, dtype=dt, stagger=1
            )
        else:
            self._a = BatchMortonMatrix.zeros(
                cap, key.m, key.k, tm, tk, dtype=dt, stagger=1
            )
        if self._relabel_b:
            self._b = BatchMortonMatrix.zeros(
                cap, key.n, key.k, tn, tk, dtype=dt, stagger=2
            )
        else:
            self._b = BatchMortonMatrix.zeros(
                cap, key.k, key.n, tk, tn, dtype=dt, stagger=2
            )
        self._c = BatchMortonMatrix.zeros(
            cap, key.m, key.n, tm, tn, dtype=dt, stagger=3
        )
        self.buffers_allocated = 3
        self._ws = table.workspace(
            tm.depth, tm.tile, tk.tile, tn.tile, dtype=dt, cap=cap, stagger=4
        )
        self.buffers_allocated += self._ws.buffer_count
        # One shared table per side, broadcast over the batch axis.  The
        # per-item engine calibrates loop-vs-table per plan; here the
        # B-fold Python-overhead amortisation makes the table the static
        # winner whenever the recursion has any depth at all.
        self._tables: dict[str, ConversionTable] = {}
        if tm.depth >= 1:
            for name, mm in (("a", self._a), ("b", self._b), ("c", self._c)):
                if mm.rows * mm.cols <= CONVERT_TABLE_MAX_ELEMS:
                    self._tables[name] = conversion_table(
                        mm.rows, mm.cols, mm.tile_r, mm.tile_c, mm.depth
                    )
        self._baseline: dict[str, float] = {}
        # Batches never fuse their packing: one vectorised gather per side
        # over the whole stack beats packing the sums item by item.
        # Stripe views are pure geometry; reuse them across executions.
        self._stripes: dict = {}

    # ------------------------------------------------------------- execute

    def _convert_in(
        self, name: str, arrs, out: BatchMortonMatrix, transpose: bool,
        pool, workers: int,
    ) -> float:
        """Fill ``out[:len(arrs)]``; return conversion seconds saved."""
        table = self._tables.get(name)
        if table is None:
            dense_to_morton_batch(
                arrs, out, transpose=transpose, pool=pool, workers=workers
            )
            return 0.0
        base = self._baseline.get(name)
        if base is None:
            # Calibrate: item 0 through the tile loop (timed baseline),
            # the rest through the shared table.
            t0 = time.perf_counter()
            dense_to_morton(
                arrs[0], out.item(0), transpose=transpose, zero_pad=False
            )
            base = self._baseline[name] = time.perf_counter() - t0
            t1 = time.perf_counter()
            for i in range(1, len(arrs)):
                dense_to_morton(
                    arrs[i], out.item(i), transpose=transpose,
                    zero_pad=False, table=table,
                )
            return base * (len(arrs) - 1) - (time.perf_counter() - t1)
        t0 = time.perf_counter()
        dense_to_morton_batch(
            arrs, out, transpose=transpose, table=table,
            pool=pool, workers=workers,
        )
        return base * len(arrs) - (time.perf_counter() - t0)

    def _convert_out(self, n_items: int, pool, workers: int):
        """Gather the first ``n_items`` products back to dense arrays."""
        table = self._tables.get("c")
        if table is None:
            return morton_to_dense_batch(
                self._c, n_items, pool=pool, workers=workers
            ), 0.0
        base = self._baseline.get("c")
        if base is None:
            t0 = time.perf_counter()
            first = morton_to_dense(self._c.item(0))
            base = self._baseline["c"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            rest = [
                morton_to_dense(self._c.item(i), table=table)
                for i in range(1, n_items)
            ]
            saved = base * (n_items - 1) - (time.perf_counter() - t1)
            return [first, *rest], saved
        t0 = time.perf_counter()
        outs = morton_to_dense_batch(
            self._c, n_items, table=table, pool=pool, workers=workers
        )
        return outs, base * n_items - (time.perf_counter() - t0)

    def _run_stripe(self, lo: int, hi: int) -> None:
        views = self._stripes.get((lo, hi))
        if views is None:
            a = self._a.stripe(lo, hi)
            b = self._b.stripe(lo, hi)
            if self._relabel_a:
                a = transposed_view(a)
            if self._relabel_b:
                b = transposed_view(b)
            views = self._stripes[(lo, hi)] = (
                a, b,
                self._c.stripe(lo, hi),
                self._ws.view(lo, hi),
            )
        a, b, c, ws = views
        if self.key.variant == "winograd":
            winograd_multiply(
                a, b, c, ops=self._ops, workspace=ws,
                memory=self.key.memory, alpha=self.key.alpha,
            )
        else:
            strassen_multiply(
                a, b, c, ops=self._ops, workspace=ws, alpha=self.key.alpha
            )

    def execute_batch(
        self,
        problems: list[GemmProblem],
        cs: list,
        timings: PhaseTimings | None = None,
        indices=None,
    ) -> list[np.ndarray]:
        """Run validated same-geometry problems through the stacked path.

        ``cs[i]`` is item ``i``'s output operand (or ``None``); results
        come back in input order with full per-item ``alpha``/``beta``
        semantics applied.

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
        n_items = len(problems)
        if n_items == 0:
            return []
        if indices is None:
            indices = range(n_items)
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
            if (p.op_a, p.op_b) != (key.op_a, key.op_b):
                cause = PlanError(
                    f"ops {(p.op_a.value, p.op_b.value)} do not match the "
                    f"plan's {(key.op_a.value, key.op_b.value)}"
                )
                raise BatchItemError(indices[i], cause) from cause
            # alpha is folded into the one shared recursion, so it cannot
            # vary per item; beta is a per-item epilogue and may.
            if p.alpha != key.alpha:
                cause = PlanError(
                    f"alpha={p.alpha} does not match the batch plan spec's "
                    f"alpha={key.alpha}"
                )
                raise BatchItemError(indices[i], cause) from cause
        rec = PhaseTimings()
        transpose_a = key.trans_a and not self._relabel_a
        transpose_b = key.trans_b and not self._relabel_b
        tr = self._ops.trace
        with self._lock:
            if self._debug:
                if self._poisoned:
                    check_quiescent(self._ws, "batch-workspace")
            fused0 = self._ops.fused_adds
            pool = None
            workers = 1
            if key.schedule.parallel and n_items > 1:
                pool = self.session._ensure_pool()
                workers = key.schedule.workers or pool.workers
            if tr is not None and tr.enabled:
                if self._relabel_a:
                    tr.emit("relabel", label="batch-a", items=n_items)
                if self._relabel_b:
                    tr.emit("relabel", label="batch-b", items=n_items)
            t0 = time.perf_counter()
            saved = self._convert_in(
                "a", [p.a for p in problems], self._a, transpose_a,
                pool, workers,
            )
            saved += self._convert_in(
                "b", [p.b for p in problems], self._b, transpose_b,
                pool, workers,
            )
            t1 = time.perf_counter()
            if tr is not None and tr.enabled:
                tr.emit(
                    "convert", label="batch-in", seconds=t1 - t0,
                    items=n_items, indexed=bool(self._tables),
                )
            if self._debug:
                # Phase boundary: every occupied stack row's pad must be
                # exactly zero before the shared recursion runs over it.
                for i in range(n_items):
                    check_pad_zero(self._a.item(i), f"a[{indices[i]}]")
                    check_pad_zero(self._b.item(i), f"b[{indices[i]}]")
            run_batch_stripes(
                pool, n_items, self._run_stripe, workers,
                name=f"batch-{key.m}x{key.k}x{key.n}",
                tracer=tr,
            )
            t2 = time.perf_counter()
            if key.beta == 0.0:
                # Bulk gather to fresh dense arrays; per-item beta (a
                # directly-invoked batch may carry one) is applied in the
                # post-lock epilogue below.
                outs, saved_c = self._convert_out(n_items, pool, workers)
                saved += saved_c
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
                    items=n_items, indexed="c" in self._tables,
                )
                if key.beta != 0.0:
                    tr.emit(
                        "accumulate", label="batch-c",
                        beta=float(key.beta), items=n_items,
                    )
            fused_delta = self._ops.fused_adds - fused0
            if self._debug:
                self._ws.poison()
                self._poisoned = True
        rec.to_morton = t1 - t0
        rec.compute = t2 - t1
        rec.from_morton = t3 - t2
        if timings is not None:
            timings.to_morton += rec.to_morton
            timings.compute += rec.compute
            timings.from_morton += rec.from_morton
        self.session._record_batch_execution(
            self, n_items, rec, saved, fused_delta,
        )
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
        key = self.key
        table = self._tables.get("c")
        results = []
        first_err: BatchItemError | None = None
        for i, p in enumerate(problems):
            c = cs[i]
            try:
                if c is not None and (
                    p.beta != 0.0 or c.dtype == key.np_dtype
                ):
                    r = morton_to_dense(
                        self._c.item(i), out=c, beta=p.beta, table=table
                    )
                else:
                    d = morton_to_dense(self._c.item(i), table=table)
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

    # ----------------------------------------------------------- accounting

    @property
    def scratch_bytes(self) -> int:
        """Recursion scratch bytes the stacked workspace holds."""
        return self._ws.nbytes

    @property
    def _own_scratch_bytes(self) -> int:
        return self.scratch_bytes

    @property
    def pooled_bytes(self) -> int:
        """Bytes held by the stacked operand/product buffers and scratch.

        Conversion tables are excluded: they live in the module-level
        shared cache (:func:`repro.layout.convert.conversion_table`) and
        may serve several plans at once.
        """
        return (
            self._a.nbytes + self._b.nbytes + self._c.nbytes + self._ws.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        key = self.key
        return (
            f"BatchPlan({key.m}x{key.k}x{key.n} x{self.cap}, "
            f"op=({key.op_a.value},{key.op_b.value}), {key.variant}, "
            f"{key.memory}, {key.dtype})"
        )
