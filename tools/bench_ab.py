"""A/B-test the working tree against a git ref with the ``bench/`` harness.

Usage::

    python3 tools/bench_ab.py --base HEAD~1 [--pairs 10]
    make bench-ab BASE=<git-ref> [PAIRS=10]

Exports ``--base`` with ``git archive`` into a temporary directory, then
runs the alternating recipe of ``bench/README.md``: for each seed
``1..pairs``, every workload runs once on each side, and the side that
runs first alternates with the seed.  Afterwards it prints ``bench/compare.py``'s table and,
for every workload and end-to-end metric, each side's quartiles and how
many seed pairs the change won.  The JSON-lines results stay in the
temporary directory, whose path is printed.  Exits with
``compare.py``'s status.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from stats import percentile  # noqa: E402

WORKLOADS = ("square_1024", "batch_96x32", "paper_sweep", "gemm_tn_beta_769")


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_pairs(sides: dict, out: dict, seeds) -> None:
    """The alternating recipe: per seed, each workload on both sides."""
    for seed in seeds:
        order = ("change", "parent") if seed % 2 else ("parent", "change")
        for w in WORKLOADS:
            for side in order:
                print(f"seed {seed} {w} {side}", flush=True)
                subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", w,
                     "--seed", str(seed), "--out", str(out[side])],
                    cwd=sides[side], check=True, stdout=subprocess.DEVNULL,
                )


def load(path: Path) -> dict:
    """``{(workload, metric): {seed: value}}`` from one results file."""
    runs: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            prov = rec["provenance"]
            for name, m in rec["metrics"].items():
                runs.setdefault((prov["workload"], name), {})[prov["seed"]] = (
                    m["value"]
                )
    return runs


def quartiles(values) -> str:
    return " ".join(f"{percentile(values, p):.4g}" for p in (25, 50, 75))


def report(parent: Path, change: Path) -> None:
    """Each side's quartiles and the change's pair wins, per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(parent), load(change)
    print(f"\n{'workload':<18} {'metric':<12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>6}")
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            b, c = base.get((w, m["name"]), {}), new.get((w, m["name"]), {})
            if not b or not c:
                continue
            pairs = [(b[s], c[s]) for s in b if s in c]
            lower = m["better"] == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in pairs)
            print(f"{w:<18} {m['name']:<12} {quartiles(b.values()):>30} "
                  f"{quartiles(c.values()):>30} {wins:>3}/{len(pairs):<2}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    sides = {"parent": tmp / "parent", "change": ROOT}
    export(args.base, sides["parent"])
    out = {side: tmp / f"{side}.jsonl" for side in sides}
    print(f"results in {tmp}", flush=True)
    run_pairs(sides, out, range(1, args.pairs + 1))
    status = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "compare.py"),
         str(out["parent"]), str(out["change"])],
    ).returncode
    report(out["parent"], out["change"])
    print(f"results in {tmp}")
    return status


if __name__ == "__main__":
    sys.exit(main())
