"""``BENCHMARK.json`` is well formed and matches the runner's workloads."""

import json
import re
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    assert 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_bounds_and_setup_metric():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(m["bound"] < setup["bound"]
               for name, m in e2e.items() if name != "setup_s")
