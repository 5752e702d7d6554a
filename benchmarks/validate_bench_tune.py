"""Dependency-free schema validator for BENCH_tune.json.

Usage::

    python benchmarks/validate_bench_tune.py [path]

Exits non-zero (listing every problem found) when the file is missing,
is not JSON, does not match the schema the plan-store/autotune benchmark
emits, or violates the acceptance guards:

* every ``warm_store`` row must show a session that replayed the store
  instead of recalibrating: ``store_hits >= 1``, zero ``autotune_trial``
  events, and a first-call latency below the cold session's
  calibration+first-call cost,
* every ``tuned_vs_default`` row must be **bit-identical** to the
  default plan and no slower than it by more than 2% (median of the
  recorded interleaved rounds),
* both row kinds must cover the paper's flagship size (n >= 513).

Run by ``make tune-smoke`` / ``make bench-smoke`` and CI after the
benchmark itself.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_tune.json"

GUARD_MIN_N = 513
MAX_TUNED_RATIO = 1.02

WARM_SECONDS_FIELDS = (
    "cold_autotune_seconds",
    "cold_first_seconds",
    "cold_total_seconds",
    "warm_first_seconds",
)


def _check(cond: bool, message: str, problems: list) -> bool:
    if not cond:
        problems.append(message)
    return cond


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_warm(row: dict, where: str, problems: list) -> None:
    for field in WARM_SECONDS_FIELDS:
        _check(
            _number(row.get(field)) and row[field] > 0,
            f"{where}.{field} must be a positive number", problems,
        )
    _check(
        isinstance(row.get("store_hits"), int) and row["store_hits"] >= 1,
        f"{where}: warm session recorded no store hits at n={row.get('n')}",
        problems,
    )
    _check(
        row.get("autotune_trial_events") == 0,
        f"{where}: warm session ran calibration trials at n={row.get('n')} "
        "(must replay the store instead)", problems,
    )
    warm = row.get("warm_first_seconds")
    cold = row.get("cold_total_seconds")
    if _number(warm) and _number(cold):
        _check(
            warm < cold,
            f"{where}: warm first call ({warm:.3f}s) did not beat the cold "
            f"session's calibration+first-call cost ({cold:.3f}s) at "
            f"n={row.get('n')}", problems,
        )


def _validate_tuned(row: dict, where: str, problems: list) -> None:
    for field in ("tuned_median_seconds", "default_median_seconds"):
        _check(
            _number(row.get(field)) and row[field] > 0,
            f"{where}.{field} must be a positive number", problems,
        )
    _check(
        isinstance(row.get("rounds"), int) and row["rounds"] >= 3,
        f"{where}.rounds must be an int >= 3", problems,
    )
    _check(
        row.get("bit_identical") is True,
        f"{where}: tuned and default results differ at n={row.get('n')} "
        "(the default search space must stay bit-exact)", problems,
    )
    ratio = row.get("ratio")
    if _check(
        _number(ratio) and ratio > 0,
        f"{where}.ratio must be a positive number", problems,
    ):
        _check(
            ratio <= MAX_TUNED_RATIO,
            f"{where}: tuned plan is {ratio:.3f}x the heuristic default at "
            f"n={row.get('n')} (limit {MAX_TUNED_RATIO:.2f}x)", problems,
        )


def validate(data, problems: list) -> None:
    _check(isinstance(data, dict), "top level must be an object", problems)
    if not isinstance(data, dict):
        return
    _check(
        data.get("benchmark") == "plan-store-tune",
        "benchmark must be 'plan-store-tune'", problems,
    )
    _check(
        isinstance(data.get("schema_version"), int),
        "schema_version must be an int", problems,
    )
    _check(isinstance(data.get("quick"), bool), "quick must be a bool",
           problems)

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

    flagship = {"warm_store": 0, "tuned_vs_default": 0}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not _check(isinstance(row, dict), f"{where} must be an object",
                      problems):
            continue
        _check(
            isinstance(row.get("n"), int) and row["n"] >= 1,
            f"{where}.n must be a positive int", problems,
        )
        kind = row.get("kind")
        if not _check(
            kind in flagship,
            f"{where}.kind must be one of {sorted(flagship)}", problems,
        ):
            continue
        if kind == "warm_store":
            _validate_warm(row, where, problems)
        else:
            _validate_tuned(row, where, problems)
        if isinstance(row.get("n"), int) and row["n"] >= GUARD_MIN_N:
            flagship[kind] += 1

    for kind, count in flagship.items():
        _check(
            count >= 1,
            f"no flagship {kind} row present (need at least one "
            f"n >= {GUARD_MIN_N})", problems,
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
