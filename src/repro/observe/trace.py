"""The event tracer: a bounded ring buffer of typed execution events.

Every instrumented site in the engine follows the same discipline::

    tr = self.trace            # a Tracer, owned by the session
    if tr.enabled:             # the ONLY disabled-mode cost: one predicate
        tr.emit("convert", label="a", seconds=elapsed)

so a session that never enables tracing pays one attribute check per site
and nothing else — no timestamping, no locking, no allocation.  Enabled
tracing appends a :class:`TraceEvent` (monotonic ``perf_counter``
timestamp, emitting thread id, site label, small JSON-scalar payload) to a
fixed-capacity deque; when the buffer is full the *oldest* event is
dropped and counted, so a long-running session keeps the most recent
window of activity without unbounded memory.

``on_event`` registers observer callbacks that fire synchronously at emit
time (after buffering).  Callbacks run on the emitting thread — which may
hold a plan lock — so they must be fast and must not call back into the
session.

``dump()`` exports the buffer as a versioned JSON document (see
:mod:`repro.observe.schema`).
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

from .schema import EVENT_KINDS, TRACE_SCHEMA_VERSION

__all__ = ["EVENT_KINDS", "TraceEvent", "Tracer"]

_KIND_SET = frozenset(EVENT_KINDS)


class TraceEvent:
    """One buffered event: ``(seq, kind, t, thread, label, data)``.

    ``t`` is an absolute :func:`time.perf_counter` reading; subtract the
    tracer's ``t0`` for a session-relative time.  ``data`` is ``None`` or
    a small dict of JSON scalars.
    """

    __slots__ = ("seq", "kind", "t", "thread", "label", "data")

    def __init__(self, seq, kind, t, thread, label, data) -> None:
        self.seq = seq
        self.kind = kind
        self.t = t
        self.thread = thread
        self.label = label
        self.data = data

    def as_dict(self) -> dict:
        """The event as a JSON-serialisable dict (schema event shape)."""
        doc = {
            "seq": self.seq,
            "kind": self.kind,
            "t": self.t,
            "thread": self.thread,
            "label": self.label,
        }
        if self.data:
            doc["data"] = self.data
        return doc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", data={self.data}" if self.data else ""
        return (
            f"TraceEvent(#{self.seq} {self.kind} t={self.t:.6f} "
            f"thread={self.thread} label={self.label!r}{extra})"
        )


class Tracer:
    """A thread-safe, fixed-capacity event buffer with observer hooks.

    The default ``capacity`` holds one traced default-plan call at n=1024
    (about 58.8k events); the deque grows only as events arrive, so an
    idle or untraced tracer holds nothing.

    Created (always) by :class:`repro.engine.GemmSession`; ``enabled``
    starts False unless the session was built with ``trace=True`` and can
    be toggled at any time — instrumented sites check it per emission, so
    enabling mid-stream starts capturing immediately.
    """

    def __init__(self, capacity: int = 1 << 16, enabled: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = bool(enabled)
        self.t0 = perf_counter()
        self._lock = threading.Lock()
        self._events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._callbacks: list = []

    # -------------------------------------------------------------- control

    def enable(self) -> "Tracer":
        """Start capturing events; returns self for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Stop capturing (buffered events are kept)."""
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop every buffered event and reset the sequence/drop counters."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._dropped = 0

    def on_event(self, callback):
        """Register ``callback(event)`` to run at each (enabled) emit.

        Returns a zero-argument unsubscribe function.  Callbacks run
        synchronously on the emitting thread — keep them cheap and never
        call back into the session from one.
        """
        if not callable(callback):
            raise TypeError(f"on_event needs a callable, got {callback!r}")
        with self._lock:
            self._callbacks.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._callbacks.remove(callback)
                except ValueError:
                    pass

        return unsubscribe

    # ----------------------------------------------------------------- emit

    def emit(self, kind: str, label: str = "", **data) -> None:
        """Buffer one event (call sites gate this on ``self.enabled``).

        ``data`` values should be JSON scalars (str/int/float/bool) so the
        dump stays schema-valid.  Unknown kinds are rejected early — the
        vocabulary is the schema's.
        """
        if kind not in _KIND_SET:
            raise ValueError(
                f"unknown trace event kind {kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        ev = TraceEvent(
            seq=0,
            kind=kind,
            t=perf_counter(),
            thread=threading.get_ident(),
            label=str(label),
            data=data or None,
        )
        with self._lock:
            ev.seq = self._seq
            self._seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(ev)
            callbacks = tuple(self._callbacks)
        for cb in callbacks:
            cb(ev)

    # --------------------------------------------------------------- export

    def events(self) -> list[TraceEvent]:
        """A stable snapshot of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        """Events displaced by the ring buffer since the last clear()."""
        with self._lock:
            return self._dropped

    def dump(self) -> dict:
        """The buffer as a versioned, JSON-serialisable trace document.

        The document validates against
        :data:`repro.observe.schema.TRACE_SCHEMA`
        (``validate_trace(tracer.dump())`` is the round-trip the tests
        pin).  Timestamps are absolute ``perf_counter`` readings; ``t0``
        is the tracer's creation time in the same clock.
        """
        with self._lock:
            events = [ev.as_dict() for ev in self._events]
            dropped = self._dropped
        return {
            "schema": "repro.trace",
            "version": TRACE_SCHEMA_VERSION,
            "t0": self.t0,
            "capacity": self.capacity,
            "dropped": dropped,
            "events": events,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        with self._lock:
            n, dropped = len(self._events), self._dropped
        return (
            f"Tracer({state}, {n}/{self.capacity} events, "
            f"dropped={dropped})"
        )
