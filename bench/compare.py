"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each file holds the JSON lines ``run.py --out`` appends, any number of runs
per workload.  For every (workload, end-to-end metric) one row shows both
medians, the change's relative delta, the bound from ``BENCHMARK.json``,
each side's spread (quartile distance over median) and a verdict:

* ``unresolved`` - the metric is missing from one side (or its base
  median is 0), or either side's spread exceeds the bound and the
  change's runs do not all read better than every base run;
* ``regressed`` - the change's median is worse by more than the bound;
* ``improved`` - it is better by more than the bound;
* ``ok`` - otherwise.

Exits 1 when any row regressed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import iqr_spread

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict:
    """``{(workload, metric): [values]}`` over the runs in a JSON-lines file."""
    values = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        workload = rec["provenance"]["workload"]
        for name, metric in rec["metrics"].items():
            values[workload, name].append(metric["value"])
    return values


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    """``(verdict, relative delta)`` of one metric; delta > 0 means larger."""
    mb = statistics.median(base) if base else 0
    if not change or not mb:
        return "unresolved", None
    delta = (statistics.median(change) - mb) / abs(mb)
    worse = delta if better == "lower" else -delta
    all_better = (max(change) < min(base) if better == "lower"
                  else min(change) > max(base))
    if max(iqr_spread(base), iqr_spread(change)) > bound and not all_better:
        return "unresolved", delta
    if worse > bound:
        return "regressed", delta
    if -worse > bound:
        return "improved", delta
    return "ok", delta


def compare(base: dict, change: dict, spec: dict) -> list:
    """One row per (workload, end-to-end metric) of ``spec``."""
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for w in workloads:
        for m in spec["end_to_end"]:
            b, c = base.get((w, m["name"]), []), change.get((w, m["name"]), [])
            v, delta = verdict(b, c, m["better"], m["bound"])
            rows.append({
                "workload": w, "metric": m["name"], "unit": m["unit"],
                "base": statistics.median(b) if b else None,
                "change": statistics.median(c) if c else None,
                "delta": delta, "bound": m["bound"],
                "spread_base": iqr_spread(b), "spread_change": iqr_spread(c),
                "n_base": len(b), "n_change": len(c), "verdict": v,
            })
    return rows


def _fmt(x, spec: str) -> str:
    return "-" if x is None else format(x, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rows = compare(load_runs(args.base), load_runs(args.change), spec)
    print(f"{'workload':<18} {'metric':<12} {'base':>11} {'change':>11} "
          f"{'delta':>8} {'bound':>6} {'spr.b':>6} {'spr.c':>6} {'n':>5}  verdict")
    for r in rows:
        print(f"{r['workload']:<18} {r['metric']:<12} {_fmt(r['base'], '11.4g')} "
              f"{_fmt(r['change'], '11.4g')} {_fmt(r['delta'], '+8.2%')} "
              f"{r['bound']:6.0%} {r['spread_base']:6.1%} "
              f"{r['spread_change']:6.1%} {r['n_base']:>2}/{r['n_change']:<2}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
