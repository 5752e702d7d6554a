"""Property-based tests for the full GemmSpec operation semantics.

``C = alpha * op(A) . op(B) + beta * C`` against the numpy oracle across
memory schedules (classic / two_temp / ip_overwrite), dtypes (float64 /
float32, with a tolerance scaled to the precision), the stacked batch path
(``multiply_many`` with B in {1, 2, 7}), and the chained-expression
planner — plus the cross-schedule bit-identity the engine promises for
a fixed spec.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine import GemmSession, Mat

from ..conftest import assert_gemm_close

dims = st.integers(min_value=1, max_value=96)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
scalars = st.sampled_from([0.0, 1.0, -1.0, 0.5])
memories = st.sampled_from(["classic", "two_temp", "ip_overwrite"])
dtypes = st.sampled_from(["float64", "float32"])
batch_sizes = st.sampled_from([1, 2, 7])


def _tol(dtype) -> float:
    return 1e-3 if np.dtype(dtype) == np.float32 else 1e-8


def _operands(m, k, n, seed, ta, tb, dtype):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if ta else (m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if tb else (k, n)).astype(dtype)
    c0 = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c0


def _reference(a, b, c0, alpha, beta, ta, tb):
    opa = a.T if ta else a
    opb = b.T if tb else b
    ref = alpha * (opa @ opb)
    if beta != 0.0:
        ref = ref + beta * c0
    return ref


@settings(max_examples=60, deadline=None)
@given(m=dims, k=dims, n=dims, seed=seeds, alpha=scalars, beta=scalars,
       ta=st.booleans(), tb=st.booleans(), memory=memories, dtype=dtypes)
def test_full_spec_matches_numpy(m, k, n, seed, alpha, beta, ta, tb,
                                 memory, dtype):
    if memory == "ip_overwrite":
        # Zero-scratch mode needs uniform tiles (square).
        k = n = m
    a, b, c0 = _operands(m, k, n, seed, ta, tb, dtype)
    c = c0.copy() if beta != 0.0 else None
    with GemmSession() as s:
        out = s.multiply(
            a, b, c=c, alpha=alpha, beta=beta, trans_a=ta, trans_b=tb,
            memory=memory, dtype=dtype,
        )
    ref = _reference(a, b, c0, alpha, beta, ta, tb)
    assert_gemm_close(out, ref, tol=_tol(dtype))
    if beta != 0.0:
        assert out is c  # accumulate lands in the caller's C


@settings(max_examples=30, deadline=None)
@given(m=dims, k=dims, n=dims, seed=seeds, alpha=scalars, beta=scalars,
       ta=st.booleans(), tb=st.booleans())
def test_spec_bit_identical_across_schedules(m, k, n, seed, alpha, beta,
                                             ta, tb):
    # For one frozen spec, classic and two_temp must agree bit-for-bit:
    # alpha folds into the same final U-adds and beta into the same fused
    # output conversion on every path.
    a, b, c0 = _operands(m, k, n, seed, ta, tb, "float64")
    outs = []
    with GemmSession() as s:
        for memory in ("classic", "two_temp"):
            c = c0.copy() if beta != 0.0 else None
            outs.append(s.multiply(
                a, b, c=c, alpha=alpha, beta=beta, trans_a=ta,
                trans_b=tb, memory=memory,
            ))
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)


@settings(max_examples=30, deadline=None)
@given(m=dims, k=dims, n=dims, seed=seeds, alpha=scalars, beta=scalars,
       ta=st.booleans(), tb=st.booleans(), nb=batch_sizes, dtype=dtypes)
def test_full_spec_through_batch_path(m, k, n, seed, alpha, beta, ta, tb,
                                      nb, dtype):
    rng = np.random.default_rng(seed)
    items, refs = [], []
    for _ in range(nb):
        a = rng.standard_normal((k, m) if ta else (m, k)).astype(dtype)
        b = rng.standard_normal((n, k) if tb else (k, n)).astype(dtype)
        c0 = rng.standard_normal((m, n)).astype(dtype)
        item = {"a": a, "b": b}
        if beta != 0.0:
            item["c"] = c0.copy()
        items.append(item)
        refs.append(_reference(a, b, c0, alpha, beta, ta, tb))
    with GemmSession() as s:
        outs = s.multiply_many(
            items, alpha=alpha, beta=beta, trans_a=ta, trans_b=tb,
            dtype=dtype,
        )
    for out, ref in zip(outs, refs):
        assert_gemm_close(out, ref, tol=_tol(dtype))


@settings(max_examples=25, deadline=None)
@given(m=dims, k=dims, n=dims, p=dims, seed=seeds, alpha=scalars,
       beta=scalars, ta=st.booleans())
def test_expression_chain_matches_numpy(m, k, n, p, seed, alpha, beta, ta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if ta else (m, k))
    b = rng.standard_normal((k, n))
    d = rng.standard_normal((n, p))
    c0 = rng.standard_normal((m, p))
    c = c0.copy() if beta != 0.0 else None
    lead = Mat(a).T if ta else Mat(a)
    with GemmSession() as s:
        out = s.evaluate(lead @ Mat(b) @ Mat(d), alpha=alpha, beta=beta, c=c)
    opa = a.T if ta else a
    ref = alpha * (opa @ b @ d)
    if beta != 0.0:
        ref = ref + beta * c0
    assert_gemm_close(out, ref, tol=1e-8)
