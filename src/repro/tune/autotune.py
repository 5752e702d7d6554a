"""The autotuner: search plan space offline, confirm on-host, persist.

The paper tunes one knob per call — the truncation point — with a closed
form.  The engine has since grown more decision axes: recursion depth and
per-dimension tiles, memory schedule (classic / two-temporary), and the
leaf kernel.  This module searches that space per *shape class* the way
a database tunes query plans:

1. **Enumerate** candidate truncation points (the session's heuristic
   choice always included; ``tiles=True`` widens to every feasible
   common-depth split) and memory/kernel combinations.
2. **Prune offline** with :func:`repro.cachesim.rank.rank_tilings` — the
   machine models price each tiling's flops and cache misses, and only
   candidates within ``keep_ratio`` of the modelled best go on to host
   timing.  The heuristic default always survives pruning.
3. **Time on host** — each surviving candidate is compiled once in a
   scratch session and executed in *interleaved* rounds (candidate order
   round-robins, so clock drift and thermal ramps hit every candidate
   equally); the median over rounds ranks them.
4. **Persist** — the winner (which must beat the default's median by
   more than ``margin``, else the default wins — hysteresis keeps noisy
   ties on the safe side) is recorded in the plan store together with
   the leaf kernels' current accumulate-scratch cap.

By default the searched space is **bit-identity preserving**: memory
variations produce bit-identical results by construction, and ``(T, d)``
stays pinned to the heuristic choice.  Passing ``tiles=True``
or a ``kernels=`` list widens the search to decisions that change result
bits (different split points reassociate the additions); the store
records whatever wins, so only opt into those axes when bit-stability
against the default plan does not matter.

Entry points: :meth:`repro.engine.GemmSession.autotune` (in-process) and
``python -m repro.tune`` (CLI).  This module imports the engine lazily —
``repro.engine.session`` imports :mod:`repro.tune.store` at module
level, and a cycle here would break both.  The cache-simulator ranking
is imported inside :func:`autotune` too, so ``import repro`` never loads
:mod:`repro.cachesim`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.truncation import TruncationPolicy
from ..layout.padding import Tiling
from .store import PlanStore, StoredDecision

__all__ = [
    "Candidate",
    "ShapeReport",
    "TuneResult",
    "autotune",
    "enumerate_tilings",
]

#: Widest leaf tile the ``tiles=True`` enumeration will consider; beyond
#: this the "recursion" is mostly one big conventional product and the
#: paper's regime does not apply.
MAX_ENUM_TILE = 128

#: Narrowest leaf tile worth considering (per-call overhead dominates
#: below it on any host this runs on).
MIN_ENUM_TILE = 8


@dataclass(frozen=True)
class Candidate:
    """One point of the searched plan space.

    ``memory`` / ``kernel`` are the engine's string forms (``None`` =
    leave the session default in charge); ``tilings`` is the pinned
    truncation point.
    """

    tilings: "tuple[Tiling, Tiling, Tiling]"
    memory: str | None = None
    kernel: str | None = None
    is_default: bool = False

    @property
    def label(self) -> str:
        tm, tk, tn = self.tilings
        parts = [f"T={tm.tile},{tk.tile},{tn.tile}", f"d={tm.depth}"]
        if self.memory is not None:
            parts.append(self.memory)
        if self.kernel is not None:
            parts.append(self.kernel)
        if self.is_default:
            parts.append("default")
        return ":".join(parts)

    def policy(self, m: int, k: int, n: int) -> TruncationPolicy:
        """The pinned `TruncationPolicy` realising this candidate's tiling."""
        tm, tk, tn = self.tilings
        return TruncationPolicy.pinned_tiling(
            m, k, n, (tm.tile, tk.tile, tn.tile), tm.depth
        )


@dataclass
class ShapeReport:
    """The tuning outcome for one shape."""

    shape: tuple[int, int, int]
    candidates: int
    survivors: int
    medians: dict[str, float] = field(default_factory=dict)
    winner: Candidate | None = None
    default_seconds: float = 0.0
    winner_seconds: float = 0.0
    skipped: str | None = None  # reason, when the shape was not tuned

    @property
    def improvement(self) -> float:
        """Fractional win over the default (0.0 when the default won)."""
        if not self.default_seconds or not self.winner_seconds:
            return 0.0
        return 1.0 - self.winner_seconds / self.default_seconds


@dataclass
class TuneResult:
    """Everything one :func:`autotune` invocation did."""

    reports: list[ShapeReport]
    store_path: "str | None"
    seconds: float

    @property
    def tuned(self) -> int:
        return sum(1 for r in self.reports if r.skipped is None)


def _common_depths(m: int, k: int, n: int) -> list[int]:
    """Depths at which all three dimensions split into sane leaf tiles."""
    depths = []
    for d in range(1, 1 + max(1, int(math.log2(max(m, k, n))))):
        tiles = [-(-dim // (1 << d)) for dim in (m, k, n)]
        if max(tiles) > MAX_ENUM_TILE:
            continue
        if min(tiles) < MIN_ENUM_TILE:
            break  # deeper only shrinks tiles further
        depths.append(d)
    return depths


def enumerate_tilings(
    m: int, k: int, n: int,
    default: "tuple[Tiling, Tiling, Tiling] | None" = None,
) -> list[tuple]:
    """Candidate truncation points for one shape, default (if any) first.

    One candidate per feasible common depth, each dimension taking its
    minimal padding tile ``ceil(dim / 2^d)`` — the paper's Section 3.4
    choice at that depth.  The engine's ``default`` tilings (when given)
    lead the list and are never duplicated.
    """
    out: list[tuple] = []
    seen = set()
    if default is not None:
        out.append(tuple(default))
        seen.add(tuple((t.tile, t.depth) for t in default))
    for d in _common_depths(m, k, n):
        cand = tuple(
            Tiling(n=dim, tile=-(-dim // (1 << d)), depth=d)
            for dim in (m, k, n)
        )
        sig = tuple((t.tile, t.depth) for t in cand)
        if sig not in seen:
            seen.add(sig)
            out.append(cand)
    return out


def _normalise_shape(shape) -> tuple[int, int, int]:
    if isinstance(shape, int):
        return (shape, shape, shape)
    m, k, n = (int(x) for x in shape)
    return (m, k, n)


def _uniform(tilings) -> bool:
    tm, tk, tn = tilings
    return tm.tile == tk.tile == tn.tile


def autotune(
    session,
    shapes,
    *,
    machine: "object | str | None" = None,
    rounds: int = 5,
    tiles: bool = False,
    memories: "tuple | list | None" = None,
    kernels: "tuple | list | None" = None,
    dtype: str = "float64",
    keep_ratio: float = 1.5,
    max_keep: int = 6,
    margin: float = 0.01,
    store: "PlanStore | None" = None,
    seed: int = 20260808,
) -> TuneResult:
    """Tune ``shapes`` in the context of ``session``; persist to its store.

    ``session`` provides the defaults being tuned *against* (policy,
    kernel, variant, memory) and normally the
    :class:`~repro.tune.store.PlanStore` that receives the winners
    (``store=`` overrides it; with neither, results live only in the
    returned :class:`TuneResult`).  ``machine`` picks the offline pruning
    model (a ``repro.cachesim`` :class:`Machine` or ``MACHINES`` key;
    default the Sun Ultra 60).  ``rounds`` is the interleaved
    median-of-k depth; ``margin`` the fraction a challenger must beat the
    default by to dethrone it.

    The default search space preserves bit-identity with the default
    plan (memory axis only).  ``tiles=True`` adds the
    feasible ``(T, d)`` grid and ``kernels=`` adds leaf-kernel choices —
    both can change result bits; see the module docstring.

    Trial executions run in a *scratch* session that leaves the store
    alone; their ``autotune_trial`` events land in the owner's trace.
    """
    # Imported here, not at module level: the cache simulator (and the
    # analysis package it pulls in) costs every ``import repro`` otherwise.
    from ..cachesim.rank import rank_tilings, resolve_machine
    from ..engine.session import GemmSession

    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must be in [0, 1), got {margin}")
    machine = resolve_machine(machine)
    the_store = store if store is not None else session.plan_store
    variant = session.default_variant

    # Bit-identity-preserving default axis.  A non-winograd session
    # default cannot vary memory at all.
    if memories is None:
        memories = (
            ("classic", "two_temp") if variant == "winograd"
            else ("classic",)
        )
    kernel_axis: tuple = (None,) if not kernels else tuple(kernels)

    t_start = time.perf_counter()
    reports: list[ShapeReport] = []
    rng = np.random.default_rng(seed)
    tr = getattr(session, "trace", None)

    for raw_shape in shapes:
        m, k, n = _normalise_shape(raw_shape)
        default_tilings = session.default_policy.plan(m, k, n)
        if default_tilings is None:
            reports.append(ShapeReport(
                shape=(m, k, n), candidates=0, survivors=0,
                skipped="panelled geometry (no common tiling)",
            ))
            continue

        tiling_cands = (
            enumerate_tilings(m, k, n, default=default_tilings)
            if tiles else [tuple(default_tilings)]
        )
        ranked = rank_tilings(
            tiling_cands, machine,
            keep_ratio=keep_ratio, max_keep=max_keep, default_index=0,
        )
        survivors = [rc for rc in ranked if rc.kept]
        modelled = {id(rc.tilings): rc.run.seconds for rc in ranked}

        default_mem = session.default_memory
        cands: list[Candidate] = []
        for rc in survivors:
            for mem in memories:
                if mem == "ip_overwrite" and not _uniform(rc.tilings):
                    continue
                for kern in kernel_axis:
                    is_default = (
                        rc.is_default and mem == default_mem and kern is None
                    )
                    cands.append(Candidate(
                        tilings=rc.tilings, memory=mem, kernel=kern,
                        is_default=is_default,
                    ))
        if not any(c.is_default for c in cands):
            cands.insert(0, Candidate(
                tilings=tuple(default_tilings), memory=default_mem,
                kernel=None, is_default=True,
            ))

        # One scratch trial context: per-call policy always explicit, so
        # nothing here consults the store.
        a = np.asfortranarray(rng.standard_normal((m, k)), dtype=dtype)
        b = np.asfortranarray(rng.standard_normal((k, n)), dtype=dtype)
        medians: dict[str, float] = {}
        with GemmSession(
            capacity=max(len(cands) + 1, 4),
            kernel=session.default_kernel,
            variant=variant,
            plan_store=None,
        ) as trial:
            def run_once(c: Candidate) -> float:
                t0 = time.perf_counter()
                trial.multiply(
                    a, b,
                    policy=c.policy(m, k, n), memory=c.memory,
                    kernel=c.kernel, dtype=dtype,
                )
                return time.perf_counter() - t0

            # Warm-up: compile every plan and touch its buffers before
            # any timed round.
            for c in cands:
                run_once(c)
                run_once(c)
            samples: dict[str, list[float]] = {c.label: [] for c in cands}
            for rnd in range(rounds):
                # Ping-pong the candidate order between rounds: host
                # timings drift (frequency scaling, allocator warm-up),
                # and a fixed order would systematically flatter
                # whichever candidate runs later in the round.
                ordered = cands if rnd % 2 == 0 else list(reversed(cands))
                for c in ordered:
                    elapsed = run_once(c)
                    samples[c.label].append(elapsed)
                    if tr is not None and tr.enabled:
                        tr.emit(
                            "autotune_trial",
                            label=f"{m}x{k}x{n}:{c.label}",
                            seconds=elapsed, round=rnd,
                        )
            medians = {
                lbl: float(np.median(times))
                for lbl, times in samples.items()
            }

            default_cand = next(c for c in cands if c.is_default)
            default_med = medians[default_cand.label]
            winner = min(cands, key=lambda c: medians[c.label])
            # Hysteresis: a challenger must beat the default by > margin.
            if (
                winner is not default_cand
                and medians[winner.label] > default_med * (1.0 - margin)
            ):
                winner = default_cand
            if winner is not default_cand:
                # Confirmation duel: the grid medians compared the
                # challenger against a default sample taken earlier in
                # each round, so residual drift can still flatter it.
                # Re-measure strictly head-to-head and judge on the
                # median of *per-round* ratios — pairing within a round
                # cancels drift a cross-round median cannot — over at
                # least 5 rounds regardless of ``rounds``.  The default
                # is kept unless the win repeats.
                duel: dict[str, list[float]] = {
                    winner.label: [], default_cand.label: [],
                }
                pair = [winner, default_cand]
                for rnd in range(max(rounds, 5)):
                    ordered = pair if rnd % 2 == 0 else pair[::-1]
                    for c in ordered:
                        duel[c.label].append(run_once(c))
                ratios = [
                    w / d for w, d in
                    zip(duel[winner.label], duel[default_cand.label])
                ]
                win_med = float(np.median(duel[winner.label]))
                default_med = float(np.median(duel[default_cand.label]))
                medians[winner.label] = win_med
                medians[default_cand.label] = default_med
                if (
                    float(np.median(ratios)) > 1.0 - margin
                    or win_med > default_med * (1.0 - margin)
                ):
                    winner = default_cand

        report = ShapeReport(
            shape=(m, k, n),
            candidates=len(cands),
            survivors=len(survivors),
            medians=medians,
            winner=winner,
            default_seconds=default_med,
            winner_seconds=medians[winner.label],
        )
        reports.append(report)

        if the_store is not None:
            tm, tk, tn = winner.tilings
            from ..blas.kernels import get_accumulate_cap

            the_store.record(
                m, k, n,
                StoredDecision(
                    tile_m=tm.tile, tile_k=tk.tile, tile_n=tn.tile,
                    depth=tm.depth,
                    memory=winner.memory,
                    kernel=winner.kernel,
                    modelled_seconds=modelled.get(id(winner.tilings)),
                    measured_seconds=medians[winner.label],
                    source="autotune",
                ),
                dtype=dtype, variant=variant,
            )
            the_store.set_artifact("accumulate_cap", get_accumulate_cap())

    store_path = None
    if the_store is not None:
        the_store.flush()
        store_path = str(the_store.path)
    return TuneResult(
        reports=reports,
        store_path=store_path,
        seconds=time.perf_counter() - t_start,
    )
