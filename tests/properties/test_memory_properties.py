"""Property-based tests for the low-memory Winograd schedules.

Bit-identity of ``two_temp`` (and ``ip_overwrite`` through the engine,
whose internal Morton copies absorb the clobbering) against ``classic``
across arbitrary shapes, plus the closed-form scratch accounting the
schedules promise.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.truncation import TruncationPolicy
from repro.engine import GemmSession

small_dims = st.integers(min_value=1, max_value=96)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def operands(m, k, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


@settings(max_examples=40, deadline=None)
@given(m=small_dims, k=small_dims, n=small_dims, seed=seeds)
def test_two_temp_bit_identical_sequential(m, k, n, seed):
    a, b = operands(m, k, n, seed)
    with GemmSession() as s:
        ref = s.multiply(a, b)
        got = s.multiply(a, b, memory="two_temp")
    assert np.array_equal(ref, got)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=8, max_value=96), seed=seeds)
def test_ip_overwrite_bit_identical_square(n, seed):
    # Square problems get uniform tilings, ip_overwrite's requirement.
    a, b = operands(n, n, n, seed)
    with GemmSession() as s:
        ref = s.multiply(a, b)
        got = s.multiply(a, b, memory="ip_overwrite")
    assert np.array_equal(ref, got)


@settings(max_examples=25, deadline=None)
@given(m=small_dims, k=small_dims, n=small_dims, seed=seeds)
def test_scratch_bytes_match_closed_form(m, k, n, seed):
    # CompiledPlan.scratch_bytes must equal the geometric series the
    # schedule promises, for any planned tiling (rectangular included).
    planned = TruncationPolicy.coerce(None).plan(m, k, n)
    with GemmSession() as s:
        for memory in ("classic", "two_temp", "ip_overwrite"):
            if memory == "ip_overwrite":
                if planned is None:
                    continue  # panelled: sub-panels may be non-uniform
                tm, tk, tn = planned
                if tm.depth > 0 and not (tm.tile == tk.tile == tn.tile):
                    continue  # engine rejects this combination at compile
            plan = s.plan(m, k, n, memory=memory)
            if plan.tilings is None:
                continue  # panelled: covered via sub-plans
            tm, tk, tn = plan.tilings
            expect = 0
            for d in range(tm.depth):
                a_q = (tm.tile << d) * (tk.tile << d) * 8
                b_q = (tk.tile << d) * (tn.tile << d) * 8
                c_q = (tm.tile << d) * (tn.tile << d) * 8
                if memory == "classic":
                    expect += a_q + b_q + 2 * c_q
                elif memory == "two_temp":
                    expect += max(a_q, c_q) + b_q
            assert plan.scratch_bytes == expect


def test_ip_nonuniform_policy_combination():
    # Shapes whose planned tiles are non-uniform must raise cleanly
    # rather than compute garbage.
    from repro.errors import PlanError

    policy = TruncationPolicy.coerce(None)
    with GemmSession() as s:
        for m, k, n in [(33, 65, 97), (48, 64, 80), (96, 32, 64)]:
            plan_t = policy.plan(m, k, n)
            if plan_t is None:
                continue
            tm, tk, tn = plan_t
            if tm.depth == 0 or tm.tile == tk.tile == tn.tile:
                continue
            try:
                s.plan(m, k, n, memory="ip_overwrite")
            except PlanError:
                pass
            else:
                raise AssertionError(
                    f"non-uniform tiling {m}x{k}x{n} accepted for ip"
                )
