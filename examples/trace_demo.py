#!/usr/bin/env python
"""Trace a 513x513 multiply and inspect the event stream.

Runs a session with the structured tracer enabled, multiplies the paper's
favourite pathological size three times, validates the dumped trace
document against the versioned schema, and prints a per-kind histogram
of the events.

Run:  PYTHONPATH=src python examples/trace_demo.py
"""

import collections
import json

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(0)
    n = 513
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    # The default buffer holds all three calls' events (~8.4k each), so
    # the histogram is complete.
    session = repro.GemmSession(trace=True)
    with session:
        for _ in range(3):
            c = session.multiply(a, b)
        assert np.allclose(c, a @ b)

        # The dump is plain JSON with a versioned, validated shape.
        doc = session.trace.dump()
        repro.validate_trace(doc)
        json.dumps(doc)  # round-trippable by construction
        print(
            f"traced {n} x {n} multiply x3: {len(doc['events'])} events "
            f"captured ({doc['dropped']} dropped), schema "
            f"{doc['schema']} v{doc['version']}"
        )

        # Histogram: where the events came from.
        by_kind = collections.Counter(ev["kind"] for ev in doc["events"])
        for kind, count in by_kind.most_common():
            print(f"  {kind:>13}: {count}")


if __name__ == "__main__":
    main()
