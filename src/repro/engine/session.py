"""Plan-caching GEMM sessions: amortise planning across repeated calls.

A :class:`GemmSession` memoises :class:`CompiledPlan` objects keyed on the
full problem geometry ``(m, k, n, policy, kernel, variant, memory,
spec)``.  The first multiply of a geometry pays for truncation-point
selection and buffer allocation; every later one reuses the frozen plan —
the amortisation that serving workloads (many same-shape multiplies) need.

The cache is a bounded LRU so long-lived sessions cannot leak: when more
than ``capacity`` geometries are live, the least recently used plan (and
its pooled buffers) is dropped.  A parallel pool of :class:`Workspace`
objects serves :meth:`multiply_morton` (operands already in Morton order),
sharing the same hit/miss counters and byte accounting.

Every plan executes sequentially on the calling thread; parallelism comes
from a multi-threaded BLAS under the leaf products.

All methods are thread-safe: the cache is guarded by a session lock, and
each plan serialises its own executions, so concurrent
:meth:`multiply_many` batches never corrupt pooled buffers.

``repro.modgemm`` / ``repro.modgemm_morton`` are thin wrappers over the
module-level :func:`default_session`.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..blas.dgemm import GemmProblem, OpKind
from ..blas.kernels import LeafKernel, get_kernel, set_accumulate_cap
from ..core.modgemm import PhaseTimings
from ..core.ops import NumpyOps
from ..core.strassen import strassen_multiply
from ..core.truncation import TruncationPolicy
from ..core.winograd import StepTable, resolve_memory, winograd_multiply
from ..core.workspace import Workspace
from ..errors import BatchItemError, PlanError
from ..layout.matrix import MortonMatrix
from ..observe.trace import Tracer
from ..tune.store import UNSET, PlanStore
from .plan import (
    BATCH_CAP_MAX,
    CompiledPlan,
    PlanKey,
    _step_table,
    batch_size_class,
    resolve_variant,
)
from .spec import GemmSpec

__all__ = [
    "GemmSession",
    "SessionStats",
    "default_session",
    "reset_default_session",
]


def _check_schedule(schedule) -> None:
    """Accept the one execution schedule, ``None`` or ``"sequential"``.

    Any other value raises :class:`PlanError` naming the removal: the
    task-graph scheduler (``"tasks"``, ``"tasks:D"``, ``"tasks:DxW"``) is
    gone, and a multi-threaded BLAS under the leaf products supplies the
    parallelism instead.
    """
    if schedule is None or schedule == "sequential":
        return
    raise PlanError(
        f"schedule={schedule!r} is not supported: the task-graph scheduler "
        "was removed and every plan runs sequentially; for parallelism use "
        "a multi-threaded BLAS under the leaf products, and pass "
        "schedule='sequential' or leave it unset"
    )


@dataclass(frozen=True)
class SessionStats:
    """An immutable snapshot of one session's instrumentation counters.

    ``plan_hits`` / ``plan_misses`` count cache lookups (the Morton
    workspace pool of :meth:`GemmSession.multiply_morton` shares these);
    ``buffers_reused`` counts executions served entirely from pooled
    buffers (i.e. on a cache hit); ``buffers_allocated`` counts float64
    scratch/operand buffers allocated by plan compilation — constant while
    the hit path is in effect; ``bytes_pooled`` is the *current* total
    pooled across cached plans and workspaces; ``timings`` aggregates the
    conversion/compute phase breakdown over every execution, and
    ``convert_seconds`` (wall time spent in the conversion phases —
    ``timings.to_morton + timings.from_morton``) and ``convert_fraction``
    (``convert_seconds`` over total execute time, in ``[0, 1]`` — the
    paper's Figure 7 ratio) summarise it.

    The memory-schedule accounting adds ``scratch_bytes_allocated``
    (cumulative recursion-scratch bytes allocated over the session's
    lifetime — workspace levels, excluding operand buffers),
    ``peak_scratch_bytes`` (high-water mark of *live* scratch across
    cached plans and pooled workspaces) and ``fused_adds``
    (``add3`` passes executed by low-memory schedules).

    The stacked-batch path adds ``batched_executes`` (whole batches run
    through a stacked plan's single recursion), ``batch_items``
    (items those batches contained — each also counts in ``executes``),
    ``batch_fallbacks`` (same-geometry groups of two or more items that
    had to fall back to the per-item thread pool — panelled geometry or
    ``ip_overwrite``).

    The persistent plan store adds ``store_hits`` / ``store_misses``
    (plan-key resolutions answered / not answered by the session's
    :class:`repro.tune.PlanStore`) and ``autotune_seconds`` (wall time
    spent inside :meth:`GemmSession.autotune`, including its trial
    executions).
    """

    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    plans_cached: int = 0
    executes: int = 0
    buffers_reused: int = 0
    buffers_allocated: int = 0
    bytes_pooled: int = 0
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    scratch_bytes_allocated: int = 0
    peak_scratch_bytes: int = 0
    fused_adds: int = 0
    batched_executes: int = 0
    batch_items: int = 0
    batch_fallbacks: int = 0
    convert_seconds: float = 0.0
    convert_fraction: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    autotune_seconds: float = 0.0


class GemmSession:
    """A long-lived GEMM execution context with a bounded plan cache.

    Parameters
    ----------
    capacity:
        Maximum number of cached plans — single-item and stacked
        together — and, separately, of pooled Morton workspaces.
        Least-recently-used entries are evicted beyond it.
    policy, kernel, variant, memory:
        Session-wide defaults for :meth:`multiply` /:meth:`plan`; each call
        may override them.  They accept the same string-or-object forms as
        :func:`repro.modgemm`.  ``memory`` selects the recursion's
        memory schedule — ``"classic"`` (default), ``"two_temp"`` (Boyer
        et al. two-temporary: ~half the scratch, bit-identical results)
        or ``"ip_overwrite"`` (zero scratch; clobbers the *internal*
        Morton operand copies, so dense-level results are unchanged, but
        requires uniform tile geometry).
    schedule:
        ``None`` or ``"sequential"``, the only execution schedule; any
        other value raises :class:`PlanError` (the task-graph scheduler
        was removed).
    trace:
        ``True`` starts the session with event tracing enabled.  Every
        session owns a :class:`repro.observe.Tracer` at ``session.trace``
        regardless; it can be enabled/disabled at any time
        (``session.trace.enable()``).  Disabled tracing costs one
        predicate check per instrumented site.
    trace_capacity:
        Ring-buffer capacity of the session's tracer (events beyond it
        displace the oldest, which are counted in ``trace.dropped``).  The
        default, ``1 << 16``, holds one traced default-plan call at
        n=1024 (about 58.8k events); the buffer grows only as events
        arrive.
    debug:
        Arm validation mode: invariant checks at phase boundaries —
        operand-pad zeroing, workspace quiescence (poison-fill between
        executions) and NaN/Inf guards on leaf products.  Violations raise
        :class:`repro.errors.InvariantError`.  Results are bit-identical
        to a non-debug session; expect a substantial slowdown.  Fixed at
        construction (plans bake the guards in at compile time).
    accumulate_cap:
        When given, sets the leaf kernels' cached accumulate-scratch cap
        (:func:`repro.blas.set_accumulate_cap`) at construction.  The cap
        is **process-global** (the scratch is shared by every session);
        it is exposed here so serving configurations live in one place.
        An explicit value also takes precedence over a plan store's
        ``accumulate_cap`` artifact.
    plan_store:
        The persistent cross-session plan database
        (:class:`repro.tune.PlanStore`).  Accepts a ``PlanStore`` (shared
        between sessions), a path (a store is opened there, lazily), or
        ``None`` to disable persistence.  When the argument is omitted,
        the ``REPRO_PLAN_STORE`` environment variable (if set and
        non-empty) names the store path — the explicit argument always
        wins over the environment.  With a store attached, plan-key
        resolution consults it before the heuristic defaults (an
        explicit per-call ``policy=``/``memory=``/... still wins), and
        :meth:`autotune` writes its winners back.
        ``close()`` flushes dirty store state to disk.
    """

    def __init__(
        self,
        capacity: int = 16,
        policy: "TruncationPolicy | int | str | None" = None,
        kernel: "str | LeafKernel" = "numpy",
        variant: str = "winograd",
        schedule: "str | None" = None,
        memory: "str | None" = None,
        trace: bool = False,
        trace_capacity: int = 1 << 16,
        debug: bool = False,
        accumulate_cap: int | None = None,
        plan_store: "PlanStore | str | os.PathLike | None" = UNSET,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        _check_schedule(schedule)
        self.capacity = capacity
        self.trace = Tracer(capacity=trace_capacity, enabled=bool(trace))
        self.debug = bool(debug)
        if accumulate_cap is not None:
            set_accumulate_cap(accumulate_cap)
        self._plan_store = PlanStore.resolve(plan_store)
        # An explicit accumulate_cap argument outranks the store artifact;
        # otherwise the artifact is applied once, on the first consult.
        self._store_cap_pending = (
            self._plan_store is not None and accumulate_cap is None
        )
        self.default_policy = TruncationPolicy.coerce(policy)
        self.default_kernel = get_kernel(kernel)
        self.default_variant = resolve_variant(variant)
        try:
            self.default_memory = resolve_memory(memory)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        self._lock = threading.RLock()
        # (PlanKey, cap) -> plan; cap is None for a single-item plan.
        self._plans: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
        self._workspaces: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._executes = 0
        self._buffers_reused = 0
        self._buffers_allocated = 0
        self._timings = PhaseTimings()
        self._timings.panels = 0
        self._scratch_allocated = 0
        self._scratch_live = 0
        self._scratch_peak = 0
        self._fused_adds = 0
        self._batched_executes = 0
        self._batch_items = 0
        self._batch_fallbacks = 0
        self._store_hits = 0
        self._store_misses = 0
        self._autotune_seconds = 0.0
        # (shape, dtype) -> free F-order buffers for evaluate() intermediates.
        self._expr_pool: dict = {}

    @property
    def plan_store(self) -> "PlanStore | None":
        """The session's persistent plan store (``None`` when disabled)."""
        return self._plan_store

    def close(self) -> None:
        """Release pooled resources: cached plans and workspaces.

        The session stays usable — a later multiply recompiles its plan.
        Dirty plan-store state is flushed to disk (failures warn rather
        than raise — closing must always succeed).  Idempotent.
        """
        store = self._plan_store
        if store is not None:
            try:
                store.flush()
            except OSError as exc:
                warnings.warn(
                    f"could not flush plan store {store.path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self.clear()

    def __enter__(self) -> "GemmSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- planning

    def plan(
        self,
        m: int,
        k: int,
        n: int,
        op_a: "OpKind | str | None" = None,
        op_b: "OpKind | str | None" = None,
        policy: "TruncationPolicy | int | str | None" = None,
        kernel: "str | LeafKernel | None" = None,
        variant: "str | None" = None,
        schedule: "str | None" = None,
        memory: "str | None" = None,
        dtype=None,
        alpha: float | None = None,
        beta: float | None = None,
        trans_a: bool | None = None,
        trans_b: bool | None = None,
        spec: "GemmSpec | dict | None" = None,
    ) -> CompiledPlan:
        """Return the cached plan for a geometry+spec, compiling on a miss.

        The operation semantics — ``alpha``, ``beta``, transposes, dtype
        — may be given loose (keywords) or as one ``spec``
        (:class:`~repro.engine.spec.GemmSpec` or dict); explicit keywords
        override the spec, and ``trans_a``/``trans_b`` win over
        ``op_a``/``op_b`` spellings.
        """
        key = self._make_key(
            m, k, n, policy=policy, kernel=kernel, variant=variant,
            schedule=schedule, memory=memory, spec=GemmSpec.coerce(
                spec, alpha=alpha, beta=beta, op_a=op_a, op_b=op_b,
                trans_a=trans_a, trans_b=trans_b, dtype=dtype,
            ),
        )
        return self._plan_from_key(key)

    def _plan_label(self, key: PlanKey, cap: int | None = None) -> str:
        label = f"{key.m}x{key.k}x{key.n}:{key.variant}:{key.memory}"
        return label if cap is None else f"{label}x{cap}"

    def _plan_from_key(self, key: PlanKey, cap: int | None = None) -> CompiledPlan:
        """The cached plan for ``(key, cap)``, compiling on a miss.

        Single-item and stacked plans share one LRU of ``capacity``
        entries, and with it the hit/miss/eviction counters and the byte
        accounting.
        """
        ckey = (key, cap)
        tr = self.trace
        with self._lock:
            plan = self._plans.get(ckey)
            if plan is not None:
                self._plans.move_to_end(ckey)
                self._hits += 1
                plan._cache_hit = True
                if tr.enabled:
                    tr.emit("plan_hit", label=self._plan_label(key, cap))
                return plan
            self._misses += 1
            plan = CompiledPlan(key, self, cap)
            self._buffers_allocated += plan.buffers_allocated
            self._track_scratch_alloc(plan._own_scratch_bytes)
            self._plans[ckey] = plan
            if tr.enabled:
                tr.emit(
                    "plan_compile", label=self._plan_label(key, cap),
                    buffers=plan.buffers_allocated,
                )
            while len(self._plans) > self.capacity:
                (ekey, ecap), evicted = self._plans.popitem(last=False)
                self._scratch_live -= evicted._own_scratch_bytes
                self._evictions += 1
                if tr.enabled:
                    tr.emit("plan_evict", label=self._plan_label(ekey, ecap))
            return plan

    def _track_scratch_alloc(self, nbytes: int) -> None:
        """Record newly allocated recursion scratch (caller holds the lock)."""
        self._scratch_allocated += nbytes
        self._scratch_live += nbytes
        if self._scratch_live > self._scratch_peak:
            self._scratch_peak = self._scratch_live

    def _consult_store(self, m: int, k: int, n: int, gspec, variant: str):
        """Look one shape up in the plan store, counting hit/miss.

        Also applies the store's ``accumulate_cap`` artifact once per
        session on the first consult (unless the constructor received an
        explicit ``accumulate_cap`` — user configuration outranks the
        store).
        """
        store = self._plan_store
        dec = store.lookup(m, k, n, dtype=gspec.dtype, variant=variant)
        hit = dec is not None
        apply_cap = False
        with self._lock:
            if hit:
                self._store_hits += 1
            else:
                self._store_misses += 1
            if self._store_cap_pending:
                self._store_cap_pending = False
                apply_cap = True
        tr = self.trace
        if tr.enabled:
            tr.emit(
                "store_lookup",
                label=f"{m}x{k}x{n}:{gspec.dtype}:{variant}",
                hit=hit,
            )
        if apply_cap:
            cap = store.get_artifact("accumulate_cap")
            if cap is not None:
                try:
                    set_accumulate_cap(int(cap))
                except (TypeError, ValueError):
                    pass  # malformed artifact: keep the process default
        return dec

    def _make_key(
        self, m, k, n, *, policy, kernel, variant, schedule, memory,
        spec: GemmSpec,
    ) -> PlanKey:
        _check_schedule(schedule)
        variant = (
            self.default_variant if variant is None else resolve_variant(variant)
        )
        # The plan store answers before the heuristic defaults kick in,
        # but never over an explicit caller choice: a stored decision is
        # consulted only when the caller left ``policy`` unset, and its
        # memory/kernel components fill only the parameters the caller
        # also left unset.
        if policy is None and self._plan_store is not None:
            dec = self._consult_store(int(m), int(k), int(n), spec, variant)
            if dec is not None:
                try:
                    policy = dec.policy(int(m), int(k), int(n))
                except (ValueError, PlanError):
                    policy = None  # unusable record: fall back silently
                else:
                    if memory is None:
                        memory = dec.memory
                    if kernel is None:
                        kernel = dec.kernel
        if memory is None:
            mem = self.default_memory
        else:
            try:
                mem = resolve_memory(memory)
            except ValueError as exc:
                raise PlanError(str(exc)) from None
        if mem != "classic" and variant != "winograd":
            raise PlanError(
                f"memory={mem!r} is a Winograd schedule; "
                f"variant={variant!r} supports only memory='classic'"
            )
        return PlanKey(
            m=int(m),
            k=int(k),
            n=int(n),
            policy=self.default_policy if policy is None
            else TruncationPolicy.coerce(policy),
            kernel=self.default_kernel if kernel is None else get_kernel(kernel),
            variant=variant,
            memory=mem,
            spec=spec,
        )

    # ------------------------------------------------------------ execution

    def multiply(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        op_a: "OpKind | str" = "n",
        op_b: "OpKind | str" = "n",
        policy: "TruncationPolicy | int | str | None" = None,
        kernel: "str | LeafKernel | None" = None,
        variant: "str | None" = None,
        schedule: "str | None" = None,
        timings: PhaseTimings | None = None,
        memory: "str | None" = None,
        dtype=None,
        trans_a: bool | None = None,
        trans_b: bool | None = None,
    ) -> np.ndarray:
        """``C <- alpha * op(A) . op(B) + beta * C`` through the plan cache.

        Identical contract to :func:`repro.modgemm`; repeated same-spec
        calls skip planning and buffer allocation entirely.  ``memory``
        selects the recursion's scratch schedule (all modes produce
        bit-identical results) and ``dtype`` the computation precision —
        ``float64`` (default) or ``float32``.  ``schedule`` accepts only
        ``None``/``"sequential"``.
        The full operation spec (``alpha``, ``beta``, transposes, dtype)
        is part of the plan key, so the semantics compile *into* the
        cached plan: alpha into its final U-adds, beta into its output
        conversion, transposes into a zero-copy quadrant relabel.
        ``trans_a``/``trans_b`` are boolean aliases winning over the
        ``op_a``/``op_b`` spellings.
        """
        p = GemmProblem.create(
            a, b, op_a=op_a, op_b=op_b, alpha=alpha, beta=beta, c=c,
            dtype=dtype, trans_a=trans_a, trans_b=trans_b,
        )
        key = self._make_key(
            p.m, p.k, p.n, policy=policy, kernel=kernel, variant=variant,
            schedule=schedule, memory=memory, spec=GemmSpec.coerce(
                alpha=p.alpha, beta=p.beta, op_a=p.op_a, op_b=p.op_b,
                dtype=dtype,
            ),
        )
        plan = self._plan_from_key(key)
        return plan.execute_problem(p, c=c, timings=timings)

    #: Option names an item dict (or ``**kwargs``) may carry in
    #: :meth:`multiply_many`, beyond the operands ``a``/``b``/``c``.
    _MANY_OPTS = frozenset((
        "alpha", "beta", "op_a", "op_b", "trans_a", "trans_b", "policy",
        "kernel", "variant", "schedule", "memory", "dtype", "timings",
    ))
    _OPERANDS = frozenset(("a", "b", "c"))

    def multiply_many(
        self,
        problems,
        max_workers: int | None = None,
        batch: "str | bool" = "auto",
        **kwargs,
    ) -> list[np.ndarray]:
        """Batched dispatch: multiply many problems, results in input order.

        Items are ``(a, b)`` / ``(a, b, c)`` tuples or dicts with ``a``,
        ``b``, optional ``c``, and optional per-item overrides of any
        ``kwargs`` option (``alpha``, ``beta``, ``op_a``, ``policy``,
        ``memory``, ``dtype``, ...); ``kwargs`` apply to every item that
        does not override them.

        With ``batch="auto"`` (default) items are grouped by their full
        plan key; every group of two or more well-behaved same-geometry
        problems executes through one stacked plan (a
        :class:`CompiledPlan` with an integer ``cap``) — a *single* Winograd
        recursion over Morton stacks (the items interleaved tile by tile) —
        bit-identical to per-item results.  Groups that cannot
        stack (singletons, panelled geometries, ``memory="ip_overwrite"``)
        fall back to the per-item thread pool (BLAS leaf kernels and
        large ufuncs release the GIL); ``batch=False`` forces that legacy
        path for every item.  On the fallback path, items of *different*
        geometries overlap across threads, while same-geometry items
        serialise on their shared plan's lock — that contention is exactly
        what the stacked path removes.

        A failing item raises :class:`BatchItemError` carrying its input
        ``index`` — the position of the item in ``problems``, on *both*
        the stacked and the fallback path, whatever chunk or group the
        item landed in (the original exception is chained).  Other items
        are unaffected: every remaining group and chunk still executes,
        fallback threads are drained, and with several failures the
        smallest input index is the one reported — so the error is
        deterministic and the session's pooled stacks are quiescent when
        it propagates.
        """
        if batch not in ("auto", True, False):
            raise ValueError(
                f"batch must be 'auto', True or False, got {batch!r}"
            )
        items = list(problems)
        specs = []
        # Items with no option of their own share one key per set of the
        # problem fields a key reads, so each distinct key is built (and
        # the plan store consulted) once per call.
        shared: dict = {}
        unknown_shared = set(kwargs) - self._MANY_OPTS
        for i, item in enumerate(items):
            try:
                opts = kwargs
                if isinstance(item, dict):
                    a, b, c = item["a"], item["b"], item.get("c")
                    if item.keys() - self._OPERANDS:
                        opts = {**kwargs, **item}
                else:
                    if len(item) == 2:
                        (a, b), c = item, None
                    elif len(item) == 3:
                        a, b, c = item
                    else:
                        raise ValueError(
                            "expected an (a, b) or (a, b, c) item, got "
                            f"{len(item)} elements"
                        )
                unknown = (
                    unknown_shared if opts is kwargs
                    else set(opts) - self._MANY_OPTS - self._OPERANDS
                )
                if unknown:
                    raise ValueError(
                        f"unknown multiply_many option(s) {sorted(unknown)}"
                    )
                p = GemmProblem.create(
                    a, b,
                    op_a=opts.get("op_a", "n"), op_b=opts.get("op_b", "n"),
                    alpha=opts.get("alpha", 1.0), beta=opts.get("beta", 0.0),
                    c=c, dtype=opts.get("dtype"),
                    trans_a=opts.get("trans_a"), trans_b=opts.get("trans_b"),
                )
                sig = (p.m, p.k, p.n, p.op_a, p.op_b, p.alpha, p.beta)
                key = shared.get(sig) if opts is kwargs else None
                if key is None:
                    key = self._make_key(
                        p.m, p.k, p.n, policy=opts.get("policy"),
                        kernel=opts.get("kernel"), variant=opts.get("variant"),
                        schedule=opts.get("schedule"),
                        memory=opts.get("memory"),
                        spec=GemmSpec.coerce(
                            alpha=p.alpha, beta=p.beta, op_a=p.op_a,
                            op_b=p.op_b, dtype=opts.get("dtype"),
                        ),
                    )
                    if opts is kwargs:
                        shared[sig] = key
                specs.append((p, key, c, opts.get("timings")))
            except Exception as exc:
                raise BatchItemError(i, exc) from exc

        results: list = [None] * len(items)
        groups: "OrderedDict[PlanKey, list[int]]" = OrderedDict()
        for i, (_, key, _, _) in enumerate(specs):
            groups.setdefault(key, []).append(i)

        errors: dict[int, BatchItemError] = {}

        def record(exc: BaseException, default_index: int) -> None:
            """File an item failure under its input index (keep the first)."""
            if not isinstance(exc, BatchItemError):
                wrapped = BatchItemError(default_index, exc)
                wrapped.__cause__ = exc
                exc = wrapped
            errors.setdefault(exc.index, exc)

        fallback: list[int] = []
        for key, idxs in groups.items():
            stackable = (
                batch is not False
                and len(idxs) > 1
                and resolve_memory(key.memory) != "ip_overwrite"
                and key.policy.plan(key.m, key.k, key.n) is not None
            )
            if not stackable:
                if batch is not False and len(idxs) > 1:
                    with self._lock:
                        self._batch_fallbacks += 1
                fallback.extend(idxs)
                continue
            for lo in range(0, len(idxs), BATCH_CAP_MAX):
                chunk = idxs[lo : lo + BATCH_CAP_MAX]
                try:
                    plan = self._plan_from_key(
                        key, batch_size_class(len(chunk))
                    )
                    outs = plan.execute_batch(
                        [specs[i][0] for i in chunk],
                        [specs[i][2] for i in chunk],
                        timings=specs[chunk[0]][3],
                        indices=chunk,
                    )
                except Exception as exc:  # noqa: BLE001 - filed per item
                    # Keep draining the remaining chunks and groups: their
                    # items are independent, and completing them leaves
                    # every pooled stack quiescent before we raise.
                    record(exc, chunk[0])
                    continue
                for i, out in zip(chunk, outs):
                    results[i] = out

        if fallback:

            def run(i: int) -> np.ndarray:
                p, key, c, timings = specs[i]
                try:
                    plan = self._plan_from_key(key)
                    return plan.execute_problem(p, c=c, timings=timings)
                except Exception as exc:
                    raise BatchItemError(i, exc) from exc

            if max_workers == 1 or len(fallback) <= 1:
                for i in fallback:
                    try:
                        results[i] = run(i)
                    except BatchItemError as exc:
                        record(exc, i)
            else:
                workers = (
                    max_workers if max_workers is not None
                    else min(8, len(fallback))
                )
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(run, i) for i in fallback]
                    # Drain everything before raising so a failing item
                    # never leaves sibling threads orphaned mid-execute.
                    for i, fut in zip(fallback, futures):
                        exc = fut.exception()
                        if exc is None:
                            results[i] = fut.result()
                        else:
                            record(exc, i)
        if errors:
            raise errors[min(errors)]
        return results

    def multiply_morton(
        self,
        a_mm: MortonMatrix,
        b_mm: MortonMatrix,
        c_mm: MortonMatrix | None = None,
        kernel: "str | LeafKernel | None" = None,
        variant: "str | None" = None,
        workspace: Workspace | None = None,
        memory: "str | None" = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        trans_a: bool = False,
        trans_b: bool = False,
    ) -> MortonMatrix:
        """Multiply operands already in Morton order (Figure 8 regime).

        Pools the recursion :class:`Workspace` *and the output buffer* per
        geometry when the caller supplies neither: with ``c_mm=None`` the
        result is written into a pooled buffer that stays valid until the
        next same-geometry call with ``c_mm=None`` — copy it (or pass your
        own ``c_mm``) to keep results across calls.  An explicit
        ``workspace`` bypasses the pool (and its lock) exactly as the
        historical API did.  With ``memory="ip_overwrite"`` the caller's
        ``a_mm``/``b_mm`` buffers are destroyed.

        ``alpha``/``beta``/``trans_a``/``trans_b`` give the full dgemm
        contract on the Morton surface: a transpose is a zero-copy
        quadrant relabel, ``beta`` stages the product and folds it into
        ``c_mm`` (which it therefore requires).  The Winograd variant
        carries all four; Strassen (the ablation baseline) supports
        ``alpha`` only, and ``ip_overwrite`` cannot consume relabeled
        operands (:class:`PlanError` either way).
        """
        variant = (
            self.default_variant if variant is None else resolve_variant(variant)
        )
        kern = self.default_kernel if kernel is None else get_kernel(kernel)
        if memory is None:
            mem = self.default_memory
        else:
            try:
                mem = resolve_memory(memory)
            except ValueError as exc:
                raise PlanError(str(exc)) from None
        if mem != "classic" and variant != "winograd":
            raise PlanError(
                f"memory={mem!r} is a Winograd schedule; "
                f"variant={variant!r} supports only memory='classic'"
            )
        if variant != "winograd" and (trans_a or trans_b or beta != 0.0):
            raise PlanError(
                "transpose relabeling and beta accumulation on the Morton "
                f"surface require variant='winograd'; got {variant!r}"
            )
        if (trans_a or trans_b) and mem == "ip_overwrite":
            raise PlanError(
                "memory='ip_overwrite' cannot consume relabeled "
                "(transposed) operands; use memory='two_temp' or 'classic'"
            )
        if beta != 0.0 and c_mm is None:
            raise PlanError("beta != 0 requires an existing c_mm operand")
        ops = NumpyOps(kern, trace=self.trace, validate=self.debug)

        # op(A) is (ar x ak) with (atr x atk) tiles; op(B) contributes the
        # output's column geometry.
        if trans_a:
            ar, atr, atk = a_mm.cols, a_mm.tile_c, a_mm.tile_r
        else:
            ar, atr, atk = a_mm.rows, a_mm.tile_r, a_mm.tile_c
        bn, btn = (
            (b_mm.rows, b_mm.tile_r) if trans_b else (b_mm.cols, b_mm.tile_c)
        )
        dtype = np.result_type(a_mm.buf.dtype, b_mm.buf.dtype)

        def run(c: MortonMatrix, ws: Workspace | None) -> None:
            if variant == "winograd":
                winograd_multiply(
                    a_mm, b_mm, c, ops=ops, workspace=ws, memory=mem,
                    alpha=alpha, beta=beta,
                    trans_a=trans_a, trans_b=trans_b,
                )
            else:
                strassen_multiply(
                    a_mm, b_mm, c, ops=ops, workspace=ws, alpha=alpha
                )

        def fresh_c() -> MortonMatrix:
            return MortonMatrix(
                buf=np.empty(
                    (atr << a_mm.depth) * (btn << b_mm.depth), dtype=dtype
                ),
                rows=ar,
                cols=bn,
                tile_r=atr,
                tile_c=btn,
                depth=a_mm.depth,
            )

        if workspace is not None:
            if c_mm is None:
                c_mm = fresh_c()
            run(c_mm, workspace)
            self._fold_fused(ops)
            return c_mm
        ws, ws_lock, c_buf = self._pooled_workspace(
            a_mm.depth, atr, atk, btn, _step_table(variant, mem), dtype
        )
        with ws_lock:
            if c_mm is None:
                # Wrap the pooled buffer with this call's logical shape
                # (same padded geometry can serve many logical sizes).
                c_mm = MortonMatrix(
                    buf=c_buf,
                    rows=ar,
                    cols=bn,
                    tile_r=atr,
                    tile_c=btn,
                    depth=a_mm.depth,
                )
            run(c_mm, ws)
        self._fold_fused(ops)
        return c_mm

    def autotune(
        self,
        shapes,
        **kwargs,
    ):
        """Tune the given shapes and persist the winners to the plan store.

        ``shapes`` is an iterable of ``n`` (square) or ``(m, k, n)``
        problem shapes.  Delegates to :func:`repro.tune.autotune` with
        this session as the context — the session's plan store receives
        the winning decisions (a session without a store can still tune;
        the results then live only in the returned report).  Remaining
        keyword arguments are the tuner knobs (``machine=``, ``rounds=``,
        ``tiles=``, ``dtype=``, ...).  Wall time spent here is reported
        as ``autotune_seconds`` in :meth:`stats`.
        """
        from ..tune.autotune import autotune as _autotune

        t0 = time.perf_counter()
        try:
            return _autotune(self, shapes, **kwargs)
        finally:
            with self._lock:
                self._autotune_seconds += time.perf_counter() - t0

    def evaluate(
        self,
        expr,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        c: np.ndarray | None = None,
        dtype=None,
        **opts,
    ) -> np.ndarray:
        """Evaluate a product chain: ``alpha * (L1 @ ... @ Ln) + beta * C``.

        ``expr`` is built from :class:`repro.engine.expr.Mat` leaves joined
        with ``@`` (``Mat(A).T`` marks a zero-copy transpose).  The
        association order is chosen by the matrix-chain cost model, each
        pairwise product runs through :meth:`multiply` (one cached plan
        per geometry), and intermediates reuse the session's pooled
        expression buffers.  ``alpha``/``beta``/``c`` apply to the root
        product; remaining ``opts`` (``kernel=``, ``memory=``,
        ``schedule=`` ...) are forwarded to every multiply.
        """
        from .expr import evaluate as _evaluate

        return _evaluate(
            self, expr, alpha=alpha, beta=beta, c=c, dtype=dtype,
            pool=self._expr_pool, **opts,
        )

    def _fold_fused(self, ops: NumpyOps) -> None:
        """Fold one backend's fused-pass counter into the session's."""
        if ops.fused_adds:
            with self._lock:
                self._fused_adds += ops.fused_adds

    def _pooled_workspace(
        self,
        depth: int,
        tile_m: int,
        tile_k: int,
        tile_n: int,
        table: StepTable,
        dtype,
    ) -> tuple[Workspace, threading.Lock, np.ndarray]:
        geom = (depth, tile_m, tile_k, tile_n, table.name, np.dtype(dtype).str)
        with self._lock:
            entry = self._workspaces.get(geom)
            if entry is not None:
                self._workspaces.move_to_end(geom)
                self._hits += 1
                self._buffers_reused += 1
                return entry
            self._misses += 1
            ws = table.workspace(depth, tile_m, tile_k, tile_n, dtype=dtype)
            c_buf = np.empty((tile_m << depth) * (tile_n << depth), dtype=dtype)
            self._buffers_allocated += ws.buffer_count + 1
            self._track_scratch_alloc(ws.nbytes)
            entry = (ws, threading.Lock(), c_buf)
            self._workspaces[geom] = entry
            while len(self._workspaces) > self.capacity:
                _, (old_ws, _, _) = self._workspaces.popitem(last=False)
                self._scratch_live -= old_ws.nbytes
                self._evictions += 1
            return entry

    # --------------------------------------------------------- bookkeeping

    def _record_execution(
        self, plan: CompiledPlan, rec: PhaseTimings, extras=None, items: int = 1,
    ) -> None:
        """Fold one plan execution into the session counters (plan calls
        this).  A stacked plan's execution of ``items`` problems also
        counts as one batch."""
        tr = self.trace
        if tr.enabled:
            batch = {} if plan.cap is None else {"items": items}
            tr.emit(
                "exec",
                label=self._plan_label(plan.key, plan.cap),
                seconds=rec.to_morton + rec.compute + rec.from_morton,
                **batch,
            )
        with self._lock:
            self._executes += items
            if plan.cap is not None:
                self._batched_executes += 1
                self._batch_items += items
            if plan._cache_hit:
                self._buffers_reused += items
            self._timings.to_morton += rec.to_morton
            self._timings.compute += rec.compute
            self._timings.from_morton += rec.from_morton
            self._timings.panels += rec.panels if rec.panels > 1 else 0
            if extras is not None:
                self._fused_adds += extras.fused_adds

    def stats(self) -> SessionStats:
        """A consistent snapshot of the instrumentation counters."""
        with self._lock:
            pooled = sum(p.pooled_bytes for p in self._plans.values())
            for ws, _, c_buf in self._workspaces.values():
                pooled += c_buf.nbytes + ws.nbytes
            agg = PhaseTimings(
                to_morton=self._timings.to_morton,
                compute=self._timings.compute,
                from_morton=self._timings.from_morton,
                panels=self._timings.panels,
            )
            convert_seconds = agg.to_morton + agg.from_morton
            total_seconds = convert_seconds + agg.compute
            convert_fraction = (
                convert_seconds / total_seconds if total_seconds > 0 else 0.0
            )
            return SessionStats(
                plan_hits=self._hits,
                plan_misses=self._misses,
                plan_evictions=self._evictions,
                plans_cached=len(self._plans),
                executes=self._executes,
                buffers_reused=self._buffers_reused,
                buffers_allocated=self._buffers_allocated,
                bytes_pooled=pooled,
                timings=agg,
                scratch_bytes_allocated=self._scratch_allocated,
                peak_scratch_bytes=self._scratch_peak,
                fused_adds=self._fused_adds,
                batched_executes=self._batched_executes,
                batch_items=self._batch_items,
                batch_fallbacks=self._batch_fallbacks,
                convert_seconds=convert_seconds,
                convert_fraction=convert_fraction,
                store_hits=self._store_hits,
                store_misses=self._store_misses,
                autotune_seconds=self._autotune_seconds,
            )

    def clear(self) -> None:
        """Drop every cached plan and pooled workspace (counters survive)."""
        with self._lock:
            self._plans.clear()
            self._workspaces.clear()
            self._expr_pool.clear()
            self._scratch_live = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"GemmSession(capacity={self.capacity}, plans={s.plans_cached}, "
            f"hits={s.plan_hits}, misses={s.plan_misses}, "
            f"batched={s.batched_executes}, pooled={s.bytes_pooled} B)"
        )


_default_session: GemmSession | None = None
_default_session_lock = threading.Lock()


def default_session() -> GemmSession:
    """The module-level session backing ``repro.modgemm`` one-shot calls."""
    global _default_session
    with _default_session_lock:
        if _default_session is None:
            _default_session = GemmSession()
        return _default_session


def reset_default_session(capacity: int = 16) -> GemmSession:
    """Replace the default session (fresh cache and counters); return it."""
    global _default_session
    with _default_session_lock:
        _default_session = GemmSession(capacity=capacity)
        return _default_session
