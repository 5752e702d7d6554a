"""One set-up measurement in a fresh process (``run.py`` starts it).

Builds the workload's operands, then times from ``import repro`` to the
first correct engine result for every case: import, session creation,
plan compile, buffer pooling, index tables and conversion calibration.
Prints one JSON line ``{"setup_s": ..., "ok": ...}``.

Usage: ``python3 bench/setup_probe.py --workload NAME --seed N`` with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` already set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if any(os.environ.get(v) != "1"
           for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        print("setup_probe: thread count is not pinned to 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Checker, make_cases

    w = WORKLOADS[args.workload]
    cases = make_cases(w, args.seed)

    t0 = time.perf_counter()
    from repro.engine import GemmSession

    session = GemmSession()
    outs = [case.engine(session) for case in cases]
    setup_s = time.perf_counter() - t0

    ok = all(Checker(case.refs)(out) for case, out in zip(cases, outs))
    print(json.dumps({"setup_s": setup_s, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
