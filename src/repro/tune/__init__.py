"""Persistent plan tuning: the cross-session plan store and autotuner.

The paper's tuning decisions (truncation point, layout, schedule) are
per-call and ephemeral; this package makes them durable.
:class:`PlanStore` is a versioned, corruption-tolerant, advisory-locked
on-disk database of per-shape plan decisions and calibration artifacts;
:func:`autotune` searches the plan space per shape (offline machine-model
pruning via :mod:`repro.cachesim.rank`, then interleaved on-host timing)
and writes the winners back.  A :class:`repro.engine.GemmSession` opened
against a warm store replays every decision — truncation point,
memory, kernel, conversion-path calibration, accumulate-scratch cap —
with zero per-site calibration runs.

Run ``python -m repro.tune --help`` for the command-line tuner.
"""

from .autotune import (
    Candidate,
    ShapeReport,
    TuneResult,
    autotune,
    enumerate_tilings,
)
from .store import (
    PLAN_STORE_ENV,
    STORE_SCHEMA,
    STORE_VERSION,
    UNSET,
    PlanStore,
    StoredDecision,
    shape_key,
)

__all__ = [
    "PLAN_STORE_ENV",
    "STORE_SCHEMA",
    "STORE_VERSION",
    "UNSET",
    "PlanStore",
    "StoredDecision",
    "shape_key",
    "Candidate",
    "ShapeReport",
    "TuneResult",
    "autotune",
    "enumerate_tilings",
]
