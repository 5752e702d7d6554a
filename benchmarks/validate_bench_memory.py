"""Dependency-free schema validator for BENCH_memory.json.

Usage::

    python benchmarks/validate_bench_memory.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, does not match the schema the memory benchmark emits, or
violates the memory-schedule guarantees:

* every row must be bit-identical to classic,
* ``ip_overwrite`` must own zero scratch,
* ``two_temp`` peak scratch must not exceed 60 % of classic for any
  size whose plan recurses to depth >= 3.

Run by ``make bench-smoke`` and CI after the benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_memory.json"

SCHEDULES = ("classic", "two_temp", "ip_overwrite")


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
        data.get("benchmark") == "memory-schedules",
        "benchmark must be 'memory-schedules'", problems,
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

    cells = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check(isinstance(row, dict), f"{where} must be an object",
                      problems):
            continue
        _check(
            isinstance(row.get("n"), int) and row["n"] >= 1,
            f"{where}.n must be a positive int", problems,
        )
        _check(
            isinstance(row.get("depth"), int) and row["depth"] >= 0,
            f"{where}.depth must be a non-negative int", problems,
        )
        _check(
            row.get("schedule") in SCHEDULES,
            f"{where}.schedule must be one of {SCHEDULES}", problems,
        )
        _check(
            _number(row.get("seconds")) and row["seconds"] > 0,
            f"{where}.seconds must be a positive number", problems,
        )
        _check(
            _number(row.get("gflops")) and row["gflops"] > 0,
            f"{where}.gflops must be a positive number", problems,
        )
        for field in (
            "plan_scratch_bytes", "session_peak_scratch_bytes",
            "fused_adds", "measured_peak_bytes",
        ):
            _check(
                isinstance(row.get(field), int) and row[field] >= 0,
                f"{where}.{field} must be a non-negative int", problems,
            )
        _check(
            row.get("bit_identical") is True,
            f"{where}.bit_identical must be true", problems,
        )
        if isinstance(row.get("n"), int):
            cells[(row["n"], row.get("schedule"))] = row

    # ---- memory guarantees -------------------------------------------
    for (n, schedule), row in sorted(
        cells.items(), key=lambda item: str(item[0])
    ):
        if schedule == "ip_overwrite":
            _check(
                row.get("plan_scratch_bytes") == 0,
                f"ip_overwrite n={n} must report zero plan scratch", problems,
            )
        if schedule != "two_temp":
            continue
        classic = cells.get((n, "classic"))
        if not _check(
            classic is not None,
            f"two_temp n={n} has no classic baseline row", problems,
        ):
            continue
        if not isinstance(row.get("depth"), int) or row["depth"] < 3:
            continue
        base = classic.get("plan_scratch_bytes")
        lean = row.get("plan_scratch_bytes")
        if not (isinstance(base, int) and isinstance(lean, int) and base > 0):
            continue  # field-level problems already reported above
        # The recursion-schedule guarantee: two_temp's scratch must stay
        # at or below 60% of classic (analytically 50%).
        _check(
            lean <= 0.6 * base,
            f"two_temp n={n} peak scratch {lean} exceeds 60% of "
            f"classic's {base} at depth {row['depth']}", problems,
        )
        peak_base = classic.get("session_peak_scratch_bytes")
        peak_lean = row.get("session_peak_scratch_bytes")
        if isinstance(peak_base, int) and isinstance(peak_lean, int) \
                and peak_base > 0:
            _check(
                peak_lean < peak_base,
                f"two_temp n={n} session peak scratch "
                f"{peak_lean} not below classic's {peak_base}", problems,
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
