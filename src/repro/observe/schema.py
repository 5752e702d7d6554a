"""The versioned JSON schema of a dumped trace, plus a stdlib validator.

A trace document (``Tracer.dump()``) is plain JSON so it can leave the
process — archived next to benchmark reports, diffed across runs, or fed
to external timeline viewers.  That only works if the shape is a
*contract*: :data:`TRACE_SCHEMA` is a JSON-Schema (draft-07 subset)
description of version :data:`TRACE_SCHEMA_VERSION`, and
:func:`validate_trace` enforces it with no third-party dependency (the
container has no ``jsonschema``; the validator interprets exactly the
schema subset used here, so the document in the docs and the code that
checks it cannot drift apart).

Version policy: additive changes (new optional event ``data`` fields, new
event kinds) bump nothing; anything that would invalidate an existing
consumer or document bumps ``TRACE_SCHEMA_VERSION`` and the ``version``
const below.  Version 2 dropped the kinds nothing emits any more
(``batch_stripe``, ``worker_start``/``worker_steal``/``worker_finish``,
``error``, ``cancel``) and ``exec``'s ``parallel`` field, so version-1
documents carrying them no longer validate.  Version 3 dropped ``pack``
(the fused convert-and-add packing it timed is gone) and ``convert``'s
``indexed``/``fused`` data.
"""

from __future__ import annotations

__all__ = [
    "EVENT_KINDS",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "validate_trace",
]

#: Current trace-document version (the ``version`` field of every dump).
TRACE_SCHEMA_VERSION = 3

#: The closed vocabulary of event kinds (the schema rejects others).
EVENT_KINDS = (
    "plan_compile",   # a CompiledPlan/BatchPlan/workspace entry was built
    "plan_hit",       # a cache lookup was served from the LRU
    "plan_evict",     # an LRU entry (and its pooled buffers) was dropped
    "convert",        # one dense<->Morton conversion site ran
    "add",            # one S/T/U Winograd addition pass
    "leaf",           # one leaf product (single tile or batched stack)
    "exec",           # one plan execution completed (phase breakdown)
    "accumulate",     # a beta-scaled fold of a product into a live C
    "relabel",        # a transpose served by Morton quadrant relabeling
    "store_lookup",   # a plan-store consult during key resolution (additive, v1)
    "autotune_trial", # one timed candidate execution of the autotuner (additive, v1)
)

#: JSON Schema (draft-07 subset) for the current trace-document version.
TRACE_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.trace",
    "type": "object",
    "required": ["schema", "version", "t0", "capacity", "dropped", "events"],
    "properties": {
        "schema": {"const": "repro.trace"},
        "version": {"const": TRACE_SCHEMA_VERSION},
        "t0": {"type": "number"},
        "capacity": {"type": "integer", "minimum": 1},
        "dropped": {"type": "integer", "minimum": 0},
        "events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["seq", "kind", "t", "thread", "label"],
                "properties": {
                    "seq": {"type": "integer", "minimum": 0},
                    "kind": {"enum": list(EVENT_KINDS)},
                    "t": {"type": "number"},
                    "thread": {"type": "integer"},
                    "label": {"type": "string"},
                    "data": {"type": "object"},
                },
            },
        },
    },
}

_TYPE_CHECKS = {
    # bool is an int subclass in Python; a JSON consumer would not agree,
    # so exclude it from the numeric types explicitly.
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def _validate(value, schema: dict, path: str, errors: list[str]) -> None:
    """Check ``value`` against the draft-07 subset used by TRACE_SCHEMA."""
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(f"{path}: {value!r} not one of {schema['enum']}")
        return
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](value):
        errors.append(
            f"{path}: expected {expected}, got {type(value).__name__}"
        )
        return
    minimum = schema.get("minimum")
    if minimum is not None and value < minimum:
        errors.append(f"{path}: {value!r} below minimum {minimum}")
    if expected == "object":
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required field {name!r}")
        for name, sub in schema.get("properties", {}).items():
            if name in value:
                _validate(value[name], sub, f"{path}.{name}", errors)
    elif expected == "array":
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(value):
                _validate(element, items, f"{path}[{i}]", errors)


def validate_trace(doc) -> dict:
    """Validate a dumped trace document against :data:`TRACE_SCHEMA`.

    Returns the document unchanged on success; raises :class:`ValueError`
    listing every violation (with JSON paths) otherwise.
    """
    errors: list[str] = []
    _validate(doc, TRACE_SCHEMA, "$", errors)
    if errors:
        raise ValueError(
            "trace document does not match schema version "
            f"{TRACE_SCHEMA_VERSION}:\n  " + "\n  ".join(errors)
        )
    return doc
