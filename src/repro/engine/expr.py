"""Chained-expression planning over the plan-caching session.

``session.evaluate(Mat(A) @ Mat(B) @ Mat(C))`` computes a whole product
chain through the engine: association order is chosen by the classic
matrix-chain dynamic program (minimising the summed ``m*k*n`` kernel
cost), every pairwise product runs through :meth:`GemmSession.multiply`
(so each distinct geometry compiles once and is cached), and
intermediate results land in pooled per-``(shape, dtype)`` buffers that
are reused across ``evaluate`` calls.

Leaves are :class:`Mat` wrappers; ``Mat(A).T`` marks a copy-free
transpose that flows into the engine as a ``trans_a``/``trans_b`` flag
(Morton quadrant-swap relabeling — no operand copies).  Transposing a
*chain* is rejected: ``(X @ Y).T`` would need result materialisation, so
callers write ``Mat(Y).T @ Mat(X).T`` instead.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError, ShapeError

__all__ = ["Mat", "MatChain", "chain_order", "evaluate"]


class Mat:
    """A leaf operand in a matrix-product expression.

    Wraps a 2-D array plus a transpose flag.  ``.T`` toggles the flag
    without touching the data; ``@`` builds a :class:`MatChain`.
    """

    __slots__ = ("array", "trans")

    def __init__(self, array, trans: bool = False):
        array = np.asarray(array)
        if array.ndim != 2:
            raise ShapeError(
                f"expression leaves must be 2-D, got ndim {array.ndim}"
            )
        self.array = array
        self.trans = bool(trans)

    @property
    def shape(self) -> tuple[int, int]:
        r, c = self.array.shape
        return (c, r) if self.trans else (r, c)

    @property
    def T(self) -> "Mat":
        return Mat(self.array, not self.trans)

    def __matmul__(self, other):
        return MatChain.of(self) @ other

    def __rmatmul__(self, other):
        return MatChain.of(other) @ MatChain.of(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m, n = self.shape
        return f"Mat({m}x{n}{', T' if self.trans else ''})"


class MatChain:
    """A left-to-right product of :class:`Mat` leaves (no association yet)."""

    __slots__ = ("leaves",)

    def __init__(self, leaves):
        self.leaves = tuple(leaves)

    @classmethod
    def of(cls, value) -> "MatChain":
        if isinstance(value, MatChain):
            return value
        if isinstance(value, Mat):
            return cls((value,))
        return cls((Mat(value),))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.leaves[0].shape[0], self.leaves[-1].shape[1])

    @property
    def T(self):
        raise PlanError(
            "transpose applies to expression leaves only — a chain "
            "transpose would force materialisation; write the reversed "
            "chain of transposed leaves instead: (A @ B).T == B.T @ A.T"
        )

    def __matmul__(self, other):
        other = MatChain.of(other)
        inner_l = self.leaves[-1].shape[1]
        inner_r = other.leaves[0].shape[0]
        if inner_l != inner_r:
            raise ShapeError(
                f"inner dimensions disagree in chain: {self.shape[0]}x"
                f"{inner_l} @ {inner_r}x{other.shape[1]}"
            )
        return MatChain(self.leaves + other.leaves)

    def __rmatmul__(self, other):
        return MatChain.of(other) @ self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return " @ ".join(repr(leaf) for leaf in self.leaves)


def chain_order(dims):
    """Matrix-chain association order for leaf ``i`` of shape
    ``dims[i] x dims[i+1]``.

    Returns ``(cost, splits)`` where ``cost`` is the minimal summed
    ``m*k*n`` over all pairwise products and ``splits[i][j]`` is the
    index after which the optimal evaluation of leaves ``i..j`` splits.
    """
    n = len(dims) - 1
    if n < 1:
        raise PlanError("chain_order needs at least one matrix")
    cost = [[0] * n for _ in range(n)]
    splits = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            best = None
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j] + dims[i] * dims[k + 1] * dims[j + 1]
                if best is None or c < best:
                    best = c
                    splits[i][j] = k
            cost[i][j] = best
    return cost[0][n - 1], splits


def _pool_key(shape, dtype):
    return (tuple(shape), np.dtype(dtype).str)


def _acquire(pool, shape, dtype):
    stack = pool.get(_pool_key(shape, dtype))
    if stack:
        return stack.pop()
    # F-order matches the engine's column-major dgemm interface contract.
    return np.empty(shape, dtype=dtype, order="F")


def _release(pool, buf):
    pool.setdefault(_pool_key(buf.shape, buf.dtype), []).append(buf)


def evaluate(
    session,
    expr,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    c=None,
    dtype=None,
    pool=None,
    **opts,
):
    """Evaluate a product chain: ``alpha * (L1 @ ... @ Ln) + beta * C``.

    ``expr`` is a :class:`MatChain` (or a single product built with
    ``@``).  Association order comes from :func:`chain_order`; every
    pairwise product runs through ``session.multiply`` so plans are
    cached per geometry.  Intermediates are drawn from ``pool`` (a dict,
    typically the session's) and returned to it before this function
    exits; ``alpha``/``beta``/``c`` apply to the *root* product only.
    Extra ``opts`` (``kernel=``, ``memory=``, ``schedule=`` ...) are
    forwarded to every ``multiply`` call.
    """
    chain = MatChain.of(expr)
    leaves = chain.leaves
    if len(leaves) < 2:
        raise PlanError(
            "expression must contain at least two operands; wrap arrays "
            "in Mat() and join them with @"
        )
    dims = [leaves[0].shape[0]] + [leaf.shape[1] for leaf in leaves]
    _, splits = chain_order(dims)
    dt = np.dtype("float64" if dtype is None else dtype)
    if pool is None:
        pool = {}

    def eval_range(i, j, root):
        if i == j:
            return leaves[i]
        k = splits[i][j]
        left = eval_range(i, k, False)
        right = eval_range(k + 1, j, False)
        la, lt = (left.array, left.trans) if isinstance(left, Mat) else (left, False)
        ra, rt = (
            (right.array, right.trans) if isinstance(right, Mat) else (right, False)
        )
        if root:
            r = session.multiply(
                la, ra, c=c, alpha=alpha, beta=beta,
                trans_a=lt, trans_b=rt, dtype=dt, **opts,
            )
        else:
            buf = _acquire(pool, (dims[i], dims[j + 1]), dt)
            r = session.multiply(
                la, ra, c=buf, trans_a=lt, trans_b=rt, dtype=dt, **opts,
            )
        for child in (left, right):
            if not isinstance(child, Mat):
                _release(pool, child)
        return r

    return eval_range(0, len(leaves) - 1, True)
