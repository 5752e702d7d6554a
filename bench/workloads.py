"""The benchmark's four workloads: operands, the three timed implementations
of each op, and the correctness check applied after every timed interval.

This module imports numpy only.  ``repro`` is never imported here, so the
set-up probe (``setup_probe.py``) can start its clock before the first
``import repro``; the engine arrives as a session argument and DGEFMM as a
function argument.

A workload is a list of *cases*; one round of the timed loop runs every
case once through each implementation (engine, ``np.matmul``, DGEFMM).
"""

from __future__ import annotations

import sys
import time
import zlib
from dataclasses import dataclass

import numpy as np

#: An op fails when its relative Frobenius error exceeds this.
REL_ERR_TOL = 1e-10

IMPLS = ("engine", "matmul", "dgefmm")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects the engine entry point: ``"multiply"`` (one
    ``session.multiply`` per case), ``"many"`` (one ``multiply_many`` over
    ``items`` pairs) or ``"gemm"`` (``C <- alpha*op(A)*B + beta*C`` into a
    C reset before every timed op).
    """

    name: str
    kind: str
    shapes: tuple
    items: int = 1
    alpha: float = 1.0
    beta: float = 0.0
    trans_a: bool = False

    @property
    def flops(self) -> int:
        """Classical ``2mkn`` flops of one round, summed over cases and items."""
        return sum(2 * m * k * n for m, k, n in self.shapes) * self.items


# Why each workload exists: BENCHMARK.json's ``why`` fields and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="square_1024",
            kind="multiply",
            shapes=((1024, 1024, 1024),),
        ),
        Workload(
            name="batch_96x32",
            kind="many",
            shapes=((96, 96, 96),),
            items=32,
        ),
        Workload(
            name="paper_sweep",
            kind="multiply",
            shapes=(
                (150, 150, 150),
                (257, 257, 257),
                (200, 300, 250),
                (384, 384, 384),
                (513, 513, 513),
                (640, 900, 330),
                (900, 900, 900),
                (1000, 200, 1000),
                (1100, 1100, 64),
            ),
        ),
        Workload(
            name="gemm_tn_beta_769",
            kind="gemm",
            shapes=((769, 769, 769),),
            alpha=0.5,
            beta=1.0,
            trans_a=True,
        ),
    )
}


def _fortran_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A column-major standard-normal matrix (the dgemm storage order)."""
    return rng.standard_normal((cols, rows)).T


def rel_err(out: np.ndarray, ref: np.ndarray) -> float:
    """``||out - ref||_F / ||ref||_F``."""
    return float(np.linalg.norm(out - ref) / np.linalg.norm(ref))


class Case:
    """The operands of one case and a reference for its result.

    ``pairs`` holds ``items`` operand pairs (one for every kind but
    ``"many"``); ``refs`` the float64 numpy value of the full op
    ``alpha*op(A)op(B) + beta*C`` for each.  Every implementation owns its
    own C buffer, reset from ``c0`` before each of its timed ops.
    """

    def __init__(self, w: Workload, shape: tuple, rng: np.random.Generator):
        m, k, n = shape
        self.w = w
        self.shape = shape
        a_rows, a_cols = (k, m) if w.trans_a else (m, k)
        self.pairs = [
            (_fortran_normal(rng, a_rows, a_cols), _fortran_normal(rng, k, n))
            for _ in range(w.items)
        ]
        self.c0 = _fortran_normal(rng, m, n) if w.kind == "gemm" else None
        self.c = {impl: None if self.c0 is None else self.c0.copy()
                  for impl in IMPLS}
        self.refs = []
        for a, b in self.pairs:
            ref = (a.T if w.trans_a else a) @ b
            if w.alpha != 1.0:
                ref = w.alpha * ref
            if self.c0 is not None:
                ref = ref + w.beta * self.c0
            self.refs.append(ref)

    def prepare(self, impl: str) -> None:
        """Untimed: restore this implementation's C before its next op."""
        if self.c0 is not None:
            np.copyto(self.c[impl], self.c0)

    def engine(self, session) -> list:
        """The op through the engine under test."""
        w = self.w
        if w.kind == "many":
            return session.multiply_many(self.pairs)
        a, b = self.pairs[0]
        if w.kind == "gemm":
            return [session.multiply(
                a, b, c=self.c["engine"], alpha=w.alpha, beta=w.beta,
                trans_a=w.trans_a,
            )]
        return [session.multiply(a, b)]

    def plan_kwargs(self) -> dict:
        """The ``session.plan`` arguments that key this case's plan."""
        w = self.w
        if w.kind != "gemm":
            return {}
        return {"alpha": w.alpha, "beta": w.beta, "trans_a": w.trans_a}

    def matmul(self) -> list:
        """The same op through ``np.matmul`` (the BLAS the leaf wraps)."""
        w = self.w
        if w.kind != "gemm":
            return [np.matmul(a, b) for a, b in self.pairs]
        a, b = self.pairs[0]
        prod = np.matmul(a.T if w.trans_a else a, b)
        if w.alpha != 1.0:
            prod *= w.alpha
        c = self.c["matmul"]
        if w.beta != 1.0:
            c *= w.beta
        c += prod
        return [c]

    def dgefmm(self, dgefmm) -> list:
        """The same op through the paper's DGEFMM baseline."""
        w = self.w
        if w.kind != "gemm":
            return [dgefmm(a, b) for a, b in self.pairs]
        a, b = self.pairs[0]
        return [dgefmm(
            a, b, c=self.c["dgefmm"], alpha=w.alpha, beta=w.beta,
            op_a="t" if w.trans_a else "n",
        )]


def make_cases(w: Workload, seed: int) -> list:
    """The workload's cases; the same ``seed`` always gives the same operands."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    return [Case(w, shape, rng) for shape in w.shapes]


class Tally:
    """Counts of checked ops.

    ``attempted`` and ``failed`` count engine ops; ``baseline_failed``
    counts failed baseline ops, a fault of the harness, not the engine.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.baseline_failed = 0


def timed_op(case: Case, impl: str, call, checker: "Checker", tally: Tally) -> float:
    """Time one call of ``impl`` on ``case``; check its output afterwards.

    C is reset before the clock starts and the output is checked after it
    stops.  An op that raises counts as failed.
    """
    case.prepare(impl)
    t0 = time.perf_counter()
    try:
        outs = call()
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        elapsed = time.perf_counter() - t0
        print(f"{case.w.name} {impl} {case.shape}: {exc!r}", file=sys.stderr)
        ok = False
    else:
        elapsed = time.perf_counter() - t0
        ok = checker(outs)
    if impl == "engine":
        tally.attempted += 1
        tally.failed += not ok
    else:
        tally.baseline_failed += not ok
    return elapsed


class Checker:
    """Checks one (case, implementation)'s outputs outside the timed interval.

    An output passes when it is bit-identical to the first output checked
    on these inputs, or, for that first output, when its error against the
    reference is within :data:`REL_ERR_TOL`.  ``max_err`` is the largest
    error of any checked output (identical outputs share the first one's).
    """

    def __init__(self, refs: list):
        self.refs = refs
        self.first = None
        self.first_ok = False
        self.max_err = 0.0

    def __call__(self, outs: list) -> bool:
        if self.first is not None and len(outs) == len(self.first) and all(
            np.array_equal(o, f) for o, f in zip(outs, self.first)
        ):
            return self.first_ok
        err = max(rel_err(o, r) for o, r in zip(outs, self.refs))
        self.max_err = max(self.max_err, err)
        if self.first is None:
            self.first = [np.array(o, copy=True) for o in outs]
            self.first_ok = err <= REL_ERR_TOL
            return self.first_ok
        return False
