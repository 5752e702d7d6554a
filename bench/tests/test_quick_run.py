"""End-to-end ``--quick`` runs of every workload, and the runner's refusals."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    """One ``--quick`` command: every workload in both trace modes."""
    out = tmp_path_factory.mktemp("bench") / "quick.jsonl"
    t0 = time.perf_counter()
    proc = run_bench("--seed", "7", "--seconds", "1", "--quick", "--out",
                     str(out), timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    records = {
        (rec["provenance"]["workload"], rec["provenance"]["trace"]): rec
        for rec in map(json.loads, out.read_text().splitlines())
    }
    return summary, records, elapsed


def test_quick_run_finishes_within_a_minute(quick_results):
    assert quick_results[2] < 60


def test_summary_covers_every_workload(quick_results):
    summary, records, _ = quick_results
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] == sum(r["attempted"] for r in records.values())
    assert set(summary["metrics"]) == set(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_reported_with_its_unit(quick_results, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in WORKLOADS:
        rec = quick_results[1][name, trace]
        assert rec["correct"] is True
        assert rec["failed"] == 0 and rec["attempted"] >= 1
        assert set(rec["metrics"]) == set(declared)
        for metric, entry in rec["metrics"].items():
            assert entry["unit"] == declared[metric]
            assert math.isfinite(entry["value"])


def test_end_to_end_metrics_are_never_zero(quick_results):
    for name in WORKLOADS:
        for entry in quick_results[1][name, 0]["metrics"].values():
            assert entry["value"] > 0


def test_instrumented_passes_are_clean(quick_results):
    for name in WORKLOADS:
        metrics = quick_results[1][name, 1]["metrics"]
        assert metrics["trace.dropped"]["value"] == 0
        assert metrics["blas.leaf_calls"]["value"] > 0


def test_result_file_records_provenance(quick_results):
    records = quick_results[1]
    assert len(records) == 2 * len(WORKLOADS)
    for rec in records.values():
        prov = rec["provenance"]
        for key in ("git_commit", "seed", "cpu_count", "blas", "numpy",
                    "python", "samples", "wall_s"):
            assert key in prov
        assert prov["seed"] == 7
        assert prov["blas"]["threads"] == "1"
        assert prov["samples"] >= 1


def test_single_run_prints_contract_line():
    proc = run_bench("--workload", "gemm_tn_beta_769", "--seed", "3",
                     "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_refuses_when_numpy_was_imported_first():
    code = ("import runpy, sys, numpy; "
            "sys.argv = ['bench/run.py', '--workload', 'square_1024', "
            "'--seed', '1']; runpy.run_path('bench/run.py', "
            "run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "refusing" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "square_1024", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
