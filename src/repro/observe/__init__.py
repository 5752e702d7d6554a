"""Structured execution tracing and invariant checking for the engine.

Performance layers (low-memory schedules, stacked batching, pooled
buffers) turned the engine into a pooled-buffer system whose failure
paths are invisible to end-to-end timing.  This package makes the
*actual* execution observable — the same methodological stance as the
paper's ATOM-instrumented cache traces and the BLIS Strassen
instrumentation of Huang et al.: claims about the algorithm live or die
on traces of what really ran.

* :mod:`repro.observe.trace` — a per-session ring buffer of typed events
  (:class:`Tracer`): plan compile/hit/evict, conversions, S/T/U
  additions, leaf products, relabels, accumulates, executions, plan-store
  lookups and autotune trials, each stamped with a monotonic timestamp and
  thread id.  Disabled-mode cost at every instrumented site is a single
  predicate check (``tracer.enabled``).  ``Tracer.dump()`` exports a
  versioned JSON document.
* :mod:`repro.observe.schema` — the versioned trace-document schema
  (:data:`TRACE_SCHEMA`) and a dependency-free validator
  (:func:`validate_trace`).
* :mod:`repro.observe.validate` — the invariant checks that
  ``GemmSession(debug=True)`` arms at phase boundaries: operand-pad
  zeroing, workspace quiescence (poison-fill + checksum) and NaN/Inf leaf
  guards.  Violations raise :class:`repro.errors.InvariantError`.
"""

from ..errors import InvariantError
from .schema import TRACE_SCHEMA, TRACE_SCHEMA_VERSION, validate_trace
from .trace import EVENT_KINDS, TraceEvent, Tracer
from .validate import POISON, check_finite, check_pad_zero, check_quiescent

__all__ = [
    "Tracer",
    "TraceEvent",
    "EVENT_KINDS",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "validate_trace",
    "InvariantError",
    "POISON",
    "check_finite",
    "check_pad_zero",
    "check_quiescent",
]
