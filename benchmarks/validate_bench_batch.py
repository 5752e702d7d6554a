"""Dependency-free schema validator for BENCH_batch.json.

Usage::

    python benchmarks/validate_bench_batch.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, does not match the schema the stacked-batch benchmark
emits, or violates the batched-dispatch guarantees:

* every row must be bit-identical across the three dispatch paths,
* every row must have run at least one stacked :class:`BatchPlan`
  execution (``batched_executes >= 1``),
* the batched path must reach at least 3x the per-item thread-pool
  path's items/sec for every 96x96 cell with batch >= 32.

Run by ``make bench-smoke`` and CI after the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: The acceptance-criteria guard: batched vs threaded items/sec at this
#: size, for batches at least this large.
GUARD_N = 96
GUARD_BATCH = 32
GUARD_SPEEDUP = 3.0

RATE_FIELDS = (
    "batched_items_per_sec", "threaded_items_per_sec", "loop_items_per_sec",
    "batched_gflops", "threaded_gflops", "loop_gflops",
)


def _check(cond: bool, message: str, problems: list) -> bool:
    if not cond:
        problems.append(message)
    return cond


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(data, problems: list) -> None:
    _check(isinstance(data, dict), "top level must be an object", problems)
    if not isinstance(data, dict):
        return
    _check(
        data.get("benchmark") == "stacked-batch",
        "benchmark must be 'stacked-batch'", problems,
    )
    _check(
        isinstance(data.get("schema_version"), int),
        "schema_version must be an int", problems,
    )
    _check(isinstance(data.get("quick"), bool), "quick must be a bool", problems)

    host = data.get("host")
    if _check(isinstance(host, dict), "host must be an object", problems):
        _check(
            isinstance(host.get("cpu_count"), int) and host["cpu_count"] >= 1,
            "host.cpu_count must be a positive int", problems,
        )

    rows = data.get("rows")
    if not _check(
        isinstance(rows, list) and rows, "rows must be a non-empty list",
        problems,
    ):
        return

    guard_cells = 0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check(isinstance(row, dict), f"{where} must be an object",
                      problems):
            continue
        for field in ("n", "batch"):
            _check(
                isinstance(row.get(field), int) and row[field] >= 1,
                f"{where}.{field} must be a positive int", problems,
            )
        for field in RATE_FIELDS:
            _check(
                _number(row.get(field)) and row[field] > 0,
                f"{where}.{field} must be a positive number", problems,
            )
        for field in ("speedup_vs_threaded", "speedup_vs_loop"):
            _check(
                _number(row.get(field)) and row[field] > 0,
                f"{where}.{field} must be a positive number", problems,
            )
        _check(
            row.get("bit_identical") is True,
            f"{where}.bit_identical must be true", problems,
        )
        _check(
            isinstance(row.get("batched_executes"), int)
            and row["batched_executes"] >= 1,
            f"{where}.batched_executes must be a positive int "
            "(the stacked path must actually have run)", problems,
        )

        # ---- the throughput guard ------------------------------------
        if row.get("n") == GUARD_N and isinstance(row.get("batch"), int) \
                and row["batch"] >= GUARD_BATCH:
            guard_cells += 1
            speedup = row.get("speedup_vs_threaded")
            if _number(speedup):
                _check(
                    speedup >= GUARD_SPEEDUP,
                    f"{where}: batched path is only {speedup:.2f}x the "
                    f"thread-pool path for n={GUARD_N} batch={row['batch']} "
                    f"(need >= {GUARD_SPEEDUP}x)", problems,
                )

    _check(
        guard_cells >= 1,
        f"no guard cell present (need at least one n={GUARD_N} row with "
        f"batch >= {GUARD_BATCH})", problems,
    )


def main(argv: list) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    problems: list = []
    if not path.is_file():
        print(f"FAIL: {path} does not exist (run the benchmark first)")
        return 1
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        print(f"FAIL: {path} is not valid JSON: {exc}")
        return 1
    validate(data, problems)
    if problems:
        print(f"FAIL: {path} has {len(problems)} problem(s):")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        f"OK: {path} ({len(data['rows'])} rows, quick={data['quick']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
