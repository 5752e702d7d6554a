"""Engine-level tests of the ``schedule=`` option.

The engine runs one sequential recursion: ``schedule=None`` and
``"sequential"`` select it, and every ``tasks`` form of the removed
task-graph scheduler raises :class:`PlanError` (the full matrix of entry
points is in ``test_errors.TestRemovedSchedules``).
"""

import numpy as np
import pytest

from repro.engine import GemmSession
from repro.errors import PlanError


def sequential_reference(rng, n):
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    with GemmSession() as s:
        return a, b, s.multiply(a, b)


class TestPlanCache:
    def test_depth_zero_geometry_runs_sequentially(self, rng):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        with GemmSession() as s:
            plan = s.plan(20, 20, 20, schedule="sequential")
            assert np.allclose(plan.execute(a, b), a @ b)

    def test_tasks_rejected_for_strassen(self):
        with GemmSession() as s:
            with pytest.raises(PlanError):
                s.plan(150, 150, 150, variant="strassen", schedule="tasks")

    def test_session_default_schedule(self, rng):
        a, b, ref = sequential_reference(rng, 150)
        with GemmSession(schedule="sequential") as s:
            plan = s.plan(150, 150, 150)
            assert np.array_equal(s.multiply(a, b), ref)
            # both spellings name the one schedule: same cached plan
            assert s.plan(150, 150, 150, schedule="sequential") is plan
            assert s.plan(150, 150, 150, schedule=None) is plan
