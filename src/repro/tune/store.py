"""The persistent plan store: tuned GEMM decisions that outlive sessions.

Every :class:`repro.engine.GemmSession` today re-derives (or defaults) the
same per-shape decisions — truncation point ``(T, d)``, memory
schedule, leaf kernel — and throws them away at exit.
A production system warms up *once*: this module serializes those
decisions to a versioned on-disk JSON document shared across sessions and
processes (the query-planner pattern), alongside calibration artifacts
such as the leaf kernels' accumulate-scratch cap.

Design constraints, in order:

* **Never crash a session.**  A truncated, garbage, or wrong-version
  store file loads as an *empty* store (garbage warns with a
  :class:`RuntimeWarning`; a clean schema/version mismatch is silently
  ignored — it is simply a store this build cannot read).  Disk errors on
  :meth:`PlanStore.flush` surface as :class:`OSError` to the caller that
  asked for persistence, but lookups never raise.
* **Concurrent writers must not corrupt.**  :meth:`PlanStore.flush`
  takes an advisory exclusive lock on a sidecar ``<path>.lock`` file
  (``fcntl.flock`` where available), re-reads the document under the
  lock, merges its own dirty entries over it, and replaces the store
  atomically (``os.replace`` of a same-directory temp file).  Two
  processes tuning different shapes therefore both land in the file.
* **Stdlib only.**  JSON on disk, ``fcntl`` locking, no third-party
  dependency.

The document schema (``version`` 1)::

    {
      "schema": "repro.plan_store",
      "version": 1,
      "entries": {
        "513x513x513:float64:winograd": {
          "tile_m": 33, "tile_k": 33, "tile_n": 33, "depth": 4,
          "memory": "two_temp", "kernel": "numpy",
          "modelled_seconds": 0.41, "measured_seconds": 0.052,
          "source": "autotune"
        }, ...
      },
      "artifacts": {"accumulate_cap": 1048576}
    }

Entry keys are :func:`shape_key` strings — the *calling context* of a
lookup: GEMM dims, computation dtype and recursion variant.  The stored
decision supplies what the planner would otherwise choose heuristically:
the per-dimension truncation tiles and depth (applied as a pinned
:class:`~repro.core.truncation.TruncationPolicy`), the memory schedule
and the leaf kernel.

Documents written by older builds still load.  An entry may carry a
``"schedule"`` field, or a key ending in ``:fp=True``/``:fp=False`` (a
fused-packing mode that no longer exists; where both twins exist the
``fp=True`` one, the old default, wins); a ``"calibrations"`` section of
conversion-site verdicts is ignored.  Such a document counts as dirty,
so the next :meth:`PlanStore.flush` rewrites it in the current form.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..core.truncation import TruncationPolicy

try:  # POSIX advisory locking; degrade to lock-free on exotic platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "PLAN_STORE_ENV",
    "STORE_SCHEMA",
    "STORE_VERSION",
    "StoredDecision",
    "PlanStore",
    "shape_key",
    "UNSET",
]

#: Environment variable naming the default store path.  Precedence:
#: an explicit ``GemmSession(plan_store=...)`` argument wins over the
#: environment; ``plan_store=None`` disables the store even when the
#: variable is set; an unset/empty variable means "no store".
PLAN_STORE_ENV = "REPRO_PLAN_STORE"

#: The document's ``schema`` marker (anything else is not a plan store).
STORE_SCHEMA = "repro.plan_store"

#: Current document version; a file with any other version is ignored
#: cleanly (treated as empty) rather than half-parsed.
STORE_VERSION = 1

#: Sentinel distinguishing "argument not given" (environment applies)
#: from an explicit ``None`` (store disabled).
UNSET = object()

#: Decision fields (beyond the tiling) a stored entry may carry; each is
#: optional — ``None`` means "keep the heuristic/session default".
_DECISION_FIELDS = (
    "memory", "kernel", "modelled_seconds", "measured_seconds", "source",
)


def shape_key(
    m: int, k: int, n: int,
    dtype: str = "float64",
    variant: str = "winograd",
) -> str:
    """The store key of one lookup context.

    Encodes everything that changes which decision is *applicable*: the
    GEMM dims, the computation dtype and the recursion variant.
    """
    return f"{int(m)}x{int(k)}x{int(n)}:{dtype}:{variant}"


def _current_decisions(entries: dict) -> dict:
    """The decisions in ``entries`` that parse, keyed by current
    :func:`shape_key` strings.

    An older build suffixed each key with its fused-packing mode
    (``:fp=True``/``:fp=False``).  The suffix is dropped; of two twins the
    ``fp=True`` entry wins, and a current key beats both.  Only entries
    that parse compete, so a malformed winner never hides a valid twin.
    """
    out: dict = {}
    ranks: dict = {}
    for key, entry in entries.items():
        decision = _parse_decision(entry)
        if decision is None:
            continue
        base, sep, mode = key.rpartition(":fp=")
        if sep:
            rank = 1 if mode == "True" else 0
        else:
            base, rank = key, 2
        if rank > ranks.get(base, -1):
            out[base], ranks[base] = decision, rank
    return out


@dataclass(frozen=True)
class StoredDecision:
    """One tuned plan decision: what the planner should pick for a shape.

    ``tile_m``/``tile_k``/``tile_n``/``depth`` pin the truncation point
    (the paper's per-call selection, made persistent); ``memory`` and
    ``kernel`` override the session defaults *only for parameters the
    caller left unspecified* — an explicit per-call ``memory="classic"``
    always wins over the store.
    """

    tile_m: int
    tile_k: int
    tile_n: int
    depth: int
    memory: str | None = None
    kernel: str | None = None
    modelled_seconds: float | None = None
    measured_seconds: float | None = None
    source: str = "autotune"

    def policy(self, m: int, k: int, n: int) -> TruncationPolicy:
        """The pinned truncation policy realising this decision's (T, d)."""
        return TruncationPolicy.pinned_tiling(
            m, k, n, (self.tile_m, self.tile_k, self.tile_n), self.depth
        )

    def as_doc(self) -> dict:
        """The JSON-document form `PlanStore` persists (drops None fields)."""
        doc = {
            "tile_m": self.tile_m, "tile_k": self.tile_k,
            "tile_n": self.tile_n, "depth": self.depth,
        }
        for name in _DECISION_FIELDS:
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "StoredDecision":
        """Parse one entry document; raises on malformed shape fields."""
        return cls(
            tile_m=int(doc["tile_m"]),
            tile_k=int(doc["tile_k"]),
            tile_n=int(doc["tile_n"]),
            depth=int(doc["depth"]),
            memory=doc.get("memory"),
            kernel=doc.get("kernel"),
            modelled_seconds=doc.get("modelled_seconds"),
            measured_seconds=doc.get("measured_seconds"),
            source=doc.get("source", "autotune"),
        )


def _read_doc(path: Path) -> dict:
    """Best-effort read of a store document; empty dict when unusable.

    A missing file is the normal cold state (no warning); unparseable
    bytes warn (the store was probably truncated mid-write by something
    that bypassed the lock); an unrecognised schema or version is
    ignored silently — it is a store this build cannot (or must not)
    interpret, not a corruption.
    """
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        warnings.warn(
            f"plan store {path} is unreadable ({exc}); starting empty",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    try:
        doc = json.loads(raw)
    except ValueError:
        warnings.warn(
            f"plan store {path} is not valid JSON (truncated or corrupt); "
            "starting empty",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    if not isinstance(doc, dict):
        warnings.warn(
            f"plan store {path} is not a JSON object; starting empty",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}
    if doc.get("schema") != STORE_SCHEMA or doc.get("version") != STORE_VERSION:
        # A different schema/version: cleanly ignored, never half-parsed.
        return {}
    return doc


class PlanStore:
    """A lazily-loaded, merge-on-flush, on-disk plan database.

    Cheap to construct — the file is read on first access, so a session
    configured with a store but never multiplying through it pays
    nothing.  All methods are thread-safe; cross-*process* safety is the
    job of :meth:`flush` (advisory lock + atomic replace).  In-memory
    state is a cache over the file: :meth:`lookup` answers from memory,
    :meth:`record`/:meth:`set_artifact` mark entries dirty, and
    :meth:`flush` merges the dirty set over whatever is on disk at that
    moment.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._loaded = False
        self._entries: dict[str, StoredDecision] = {}
        self._artifacts: dict[str, object] = {}
        self._dirty_entries: set[str] = set()
        self._dirty_artifacts: set[str] = set()
        # The document read holds older-build content to rewrite.
        self._legacy = False

    # -------------------------------------------------------------- resolve

    @classmethod
    def resolve(cls, value=UNSET) -> "PlanStore | None":
        """Normalise the ``plan_store=`` argument forms.

        ``UNSET`` (the default) consults :data:`PLAN_STORE_ENV` — a
        non-empty value names the store path; explicit ``None`` disables
        the store regardless of the environment; a string/path builds a
        store there; a :class:`PlanStore` passes through (shared between
        sessions).
        """
        if value is UNSET:
            path = os.environ.get(PLAN_STORE_ENV, "").strip()
            return cls(path) if path else None
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        return cls(value)

    # ---------------------------------------------------------------- state

    def _ensure_loaded(self) -> None:
        with self._lock:
            if self._loaded:
                return
            self._absorb_doc(_read_doc(self.path), overwrite=False)
            self._loaded = True

    def _absorb_doc(self, doc: dict, overwrite: bool) -> None:
        """Fold a parsed document into memory (caller holds the lock).

        ``overwrite=False`` keeps any in-memory value over the disk's
        (locally recorded state is newer than what was read); malformed
        individual entries are skipped so one bad record cannot poison
        the rest of a mostly-good store.  Older-build content (see the
        module docstring) marks the store dirty.
        """
        raw = doc.get("entries") or {}
        if "calibrations" in doc or any(":fp=" in key for key in raw):
            self._legacy = True
        for key, decision in _current_decisions(raw).items():
            if overwrite or key not in self._entries:
                self._entries[key] = decision
        for key, value in (doc.get("artifacts") or {}).items():
            if not overwrite and key in self._artifacts:
                continue
            self._artifacts[key] = value

    def __len__(self) -> int:
        self._ensure_loaded()
        with self._lock:
            return len(self._entries)

    @property
    def dirty(self) -> bool:
        """True when in-memory state has not been flushed to disk."""
        with self._lock:
            return bool(
                self._dirty_entries or self._dirty_artifacts or self._legacy
            )

    # -------------------------------------------------------------- entries

    def lookup(
        self, m: int, k: int, n: int,
        dtype: str = "float64",
        variant: str = "winograd",
    ) -> StoredDecision | None:
        """The stored decision for one lookup context, or ``None``."""
        self._ensure_loaded()
        with self._lock:
            return self._entries.get(shape_key(m, k, n, dtype, variant))

    def record(
        self, m: int, k: int, n: int,
        decision: StoredDecision,
        dtype: str = "float64",
        variant: str = "winograd",
    ) -> str:
        """Store a decision for one lookup context; returns its key."""
        self._ensure_loaded()
        key = shape_key(m, k, n, dtype, variant)
        with self._lock:
            self._entries[key] = decision
            self._dirty_entries.add(key)
        return key

    def entries(self) -> dict[str, StoredDecision]:
        """A snapshot of every stored decision by key."""
        self._ensure_loaded()
        with self._lock:
            return dict(self._entries)

    # ------------------------------------------------------------ artifacts

    def get_artifact(self, name: str, default=None):
        """A named calibration artifact (e.g. ``"accumulate_cap"``)."""
        self._ensure_loaded()
        with self._lock:
            return self._artifacts.get(name, default)

    def set_artifact(self, name: str, value) -> None:
        """Store a named calibration artifact (JSON-scalar values only)."""
        self._ensure_loaded()
        with self._lock:
            self._artifacts[name] = value
            self._dirty_artifacts.add(name)

    # ---------------------------------------------------------------- flush

    def _locked_file(self):
        """Open (creating) the sidecar lock file and take the exclusive lock."""
        lock_path = self.path.with_name(self.path.name + ".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(lock_path, "a+")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    def flush(self) -> "Path | None":
        """Merge dirty state over the on-disk document; atomic replace.

        The advisory lock is held across read-merge-write, so concurrent
        flushers serialise and neither loses the other's entries: each
        writer folds the *current* disk contents under its own dirty
        records first.  The replacement itself is ``os.replace`` of a
        temp file created in the store's directory, so a reader never
        observes a half-written document even without taking the lock.
        No-op (returns ``None``) when nothing is dirty.
        """
        with self._lock:
            if not self.dirty:
                return None
            self._ensure_loaded()
            entries = {k: self._entries[k] for k in self._dirty_entries
                       if k in self._entries}
            artifacts = {k: self._artifacts[k] for k in self._dirty_artifacts
                         if k in self._artifacts}
        handle = self._locked_file()
        try:
            disk = _read_doc(self.path)
            doc = {
                "schema": STORE_SCHEMA,
                "version": STORE_VERSION,
                # Disk records are rewritten in the current form: one that
                # fails to parse would survive every future merge
                # otherwise, and one from an older build may carry keys
                # or fields this one dropped.
                "entries": {
                    k: d.as_doc() for k, d in _current_decisions(
                        disk.get("entries") or {}
                    ).items()
                },
                "artifacts": dict(disk.get("artifacts") or {}),
            }
            doc["entries"].update(
                {k: d.as_doc() for k, d in entries.items()}
            )
            doc["artifacts"].update(artifacts)
            fd, tmp_name = tempfile.mkstemp(
                prefix=self.path.name + ".", suffix=".tmp",
                dir=str(self.path.parent or Path(".")),
            )
            try:
                with os.fdopen(fd, "w") as tmp:
                    json.dump(doc, tmp, indent=1, sort_keys=True)
                    tmp.write("\n")
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            with self._lock:
                # Fold the merged view back so later lookups see siblings'
                # entries too, then clear the dirty sets.
                self._absorb_doc(doc, overwrite=False)
                self._dirty_entries.clear()
                self._dirty_artifacts.clear()
                self._legacy = False
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        return self.path

    def refresh(self) -> None:
        """Re-read the file, folding new sibling entries into memory."""
        with self._lock:
            self._absorb_doc(_read_doc(self.path), overwrite=False)
            self._loaded = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            n = len(self._entries) if self._loaded else "?"
        return f"PlanStore({str(self.path)!r}, entries={n})"


def _parse_decision(doc) -> "StoredDecision | None":
    if not isinstance(doc, dict):
        return None
    try:
        return StoredDecision.from_doc(doc)
    except (KeyError, TypeError, ValueError):
        return None
