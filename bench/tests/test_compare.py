"""``compare.py`` verdicts and exit codes on synthetic result files."""

import json

import pytest

import compare

SPEC = {
    "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
    "end_to_end": [
        {"name": "call_s.p50", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "gflops", "unit": "GFLOP/s", "better": "higher",
         "bound": 0.1},
    ],
}

#: Ten runs with a 2% quartile spread around 1.0.
STEADY = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]
#: Ten runs with a ~40% quartile spread around 1.0.
NOISY = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]


def write_runs(path, series):
    """``series``: {(workload, metric): [values]} -> a JSON-lines file."""
    runs = max(len(v) for v in series.values())
    with path.open("w") as f:
        for i in range(runs):
            for w in {w for w, _ in series}:
                metrics = {m: {"value": v[i], "unit": "s"}
                           for (w2, m), v in series.items()
                           if w2 == w and i < len(v)}
                f.write(json.dumps({"provenance": {"workload": w},
                                    "metrics": metrics}) + "\n")
    return path


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(SPEC))
    return path


def run(tmp_path, spec_path, base, change, capsys):
    a = write_runs(tmp_path / "a.jsonl", base)
    b = write_runs(tmp_path / "b.jsonl", change)
    code = compare.main([str(a), str(b), "--benchmark", str(spec_path)])
    rows = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        parts = line.split()
        rows[parts[0], parts[1]] = parts[-1]
    return code, rows


def full(call, gflops):
    return {("w1", "call_s.p50"): call, ("w1", "gflops"): gflops,
            ("w2", "call_s.p50"): STEADY, ("w2", "gflops"): STEADY}


def test_identical_sets_are_ok(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY),
                     full(STEADY, STEADY), capsys)
    assert code == 0
    assert set(rows.values()) == {"ok"}
    assert len(rows) == 4


def test_slower_change_regresses(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY),
                     full(scaled(STEADY, 1.2), STEADY), capsys)
    assert code == 1
    assert rows["w1", "call_s.p50"] == "regressed"
    assert rows["w2", "call_s.p50"] == "ok"


def test_higher_is_better_metric_regresses_when_lower(tmp_path, spec_path,
                                                      capsys):
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY),
                     full(STEADY, scaled(STEADY, 0.8)), capsys)
    assert code == 1
    assert rows["w1", "gflops"] == "regressed"


def test_faster_change_improves(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY),
                     full(scaled(STEADY, 0.8), scaled(STEADY, 1.25)), capsys)
    assert code == 0
    assert rows["w1", "call_s.p50"] == "improved"
    assert rows["w1", "gflops"] == "improved"


def test_change_within_bound_is_ok(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY),
                     full(scaled(STEADY, 1.05), STEADY), capsys)
    assert code == 0
    assert rows["w1", "call_s.p50"] == "ok"


def test_spread_wider_than_bound_is_unresolved(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(NOISY, STEADY),
                     full(scaled(NOISY, 1.15), STEADY), capsys)
    assert code == 0
    assert rows["w1", "call_s.p50"] == "unresolved"


def test_noisy_but_every_run_better_is_improved(tmp_path, spec_path, capsys):
    code, rows = run(tmp_path, spec_path, full(NOISY, STEADY),
                     full(scaled(NOISY, 0.4), STEADY), capsys)
    assert code == 0
    assert rows["w1", "call_s.p50"] == "improved"


def test_missing_metric_is_unresolved(tmp_path, spec_path, capsys):
    change = full(STEADY, STEADY)
    del change["w2", "gflops"]
    code, rows = run(tmp_path, spec_path, full(STEADY, STEADY), change, capsys)
    assert code == 0
    assert rows["w2", "gflops"] == "unresolved"
