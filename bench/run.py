"""One seeded GEMM benchmark of the ``repro`` engine.

Usage (from the repository root)::

    python3 bench/run.py --workload square_1024 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1        # every workload, both trace modes

One closed-loop caller in one process: each op starts when the previous
one returns.  Every round times the engine op, the same op through
``np.matmul`` and the same op through the paper's DGEFMM on identical
operands, reversing the order every round, and checks every output after
its timed interval.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics, adding two
instrumented passes after the timed loop (see ``layers.py``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out FILE`` also appends the
result with its provenance to a JSON-lines file for ``compare.py``.

The BLAS thread count is pinned to 1 before numpy is imported (the
paper's uniprocessor setting), and the engine runs its default sequential
schedule with no plan store.  Exits 1 when any op failed its check, 2 on
a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: The engine reads these at import or session creation; the benchmark
#: measures its defaults, so they are cleared.
CLEARED_ENV = ("REPRO_PLAN_STORE", "REPRO_ACCUM_CAP")

MIB = float(1 << 20)


@dataclass(frozen=True)
class Config:
    warm_rounds: int  #: untimed rounds after the cold op (calibration settles)
    min_rounds: int  #: timed rounds even when ``--seconds`` runs out first
    setup_reps: int  #: fresh processes timed for ``setup_s``
    pass_ops: int  #: least ops measured by each instrumented pass
    pass_seconds: float  #: least time each instrumented pass measures


FULL = Config(warm_rounds=2, min_rounds=3, setup_reps=7, pass_ops=5,
              pass_seconds=1.5)
QUICK = Config(warm_rounds=2, min_rounds=2, setup_reps=1, pass_ops=1,
               pass_seconds=0.0)
#: ``--quick`` caps the timed loop at this many seconds.
QUICK_SECONDS = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed loop (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="append the result and its provenance here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 0.5 s loop, one set-up process, "
                             "one op per instrumented pass")
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    spec = load_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_all(args) -> int:
    """Every workload in both trace modes, each in a fresh process.

    Prints each run's output, then one JSON line whose ``metrics`` map each
    workload to all of its metrics.  Exits 1 if any run failed.
    """
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in (w["name"] for w in load_spec()["workloads"]):
        for trace in ("0", "1"):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", trace]
            cmd += ["--quick"] if args.quick else []
            cmd += ["--out", str(args.out)] if args.out else []
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            if proc.returncode not in (0, 1):
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.setdefault(w, {}).update(result["metrics"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(np, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure_setup(w, seed: int, reps: int, tally) -> list:
    """``setup_s`` of ``reps`` fresh processes, run one after another."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"),
             "--workload", w.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.attempted += 1
        tally.failed += not rec["ok"]
        times.append(rec["setup_s"])
    return times


def cold_start_peak(cases, warm_rounds: int) -> int:
    """Peak bytes allocated from a fresh session's creation through its cold
    op and ``warm_rounds`` more, as tracemalloc counts them.

    Runs before the timed session, so module-level index tables are built
    here and counted.  The peak falls before any conversion-site
    calibration frees its losing table, so it does not depend on which
    path the timing-based calibration picks.  Outputs are dropped
    unchecked; the timed loop checks the same plans' results.
    """
    from repro.engine import GemmSession

    tracemalloc.start()
    try:
        session = GemmSession()
        for _ in range(1 + warm_rounds):
            for c in cases:
                c.prepare("engine")
                c.engine(session)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    session.close()
    return peak


def plan_seconds(session, cases, reps: int = 5, calls: int = 50) -> float:
    """Warm ``session.plan()`` time for every case, summed over cases."""
    total = 0.0
    for case in cases:
        kwargs = case.plan_kwargs()
        session.plan(*case.shape, **kwargs)  # batch workloads plan per item here
        per_call = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(calls):
                session.plan(*case.shape, **kwargs)
            per_call.append((time.perf_counter() - t0) / calls)
        total += statistics.median(per_call)
    return total


def run_workload(w, args, cfg: Config, tally) -> tuple[dict, dict]:
    """The timed loop, then the metrics ``--trace`` asks for."""
    from repro.baselines import dgefmm
    from repro.engine import GemmSession

    from layers import layer_metrics
    from stats import round_order, tail
    from workloads import IMPLS, Checker, make_cases, timed_op

    t_start = time.perf_counter()
    metrics = {}
    cases = make_cases(w, args.seed)
    if args.trace == 0:
        setups = measure_setup(w, args.seed, cfg.setup_reps, tally)
        metrics["setup_s"] = statistics.median(setups)
        metrics["mem_peak_mb"] = cold_start_peak(cases, cfg.warm_rounds) / MIB

    checkers = {impl: [Checker(c.refs) for c in cases] for impl in IMPLS}
    session = GemmSession()
    calls = [
        {"engine": lambda c=c: c.engine(session),
         "matmul": c.matmul,
         "dgefmm": lambda c=c: c.dgefmm(dgefmm)}
        for c in cases
    ]

    def play_round(r: int) -> dict:
        row = {impl: [0.0] * len(cases) for impl in IMPLS}
        for ci, c in enumerate(cases):
            for impl in round_order(r, IMPLS):
                row[impl][ci] = timed_op(c, impl, calls[ci][impl],
                                         checkers[impl][ci], tally)
        return row

    cold = sum(timed_op(c, "engine", calls[ci]["engine"],
                        checkers["engine"][ci], tally)
               for ci, c in enumerate(cases))
    for r in range(cfg.warm_rounds):
        play_round(r)
    st0 = session.stats()
    rows = []
    t_loop = time.perf_counter()
    while (len(rows) < cfg.min_rounds
           or time.perf_counter() - t_loop < args.seconds):
        rows.append(play_round(len(rows)))
    loop_s = time.perf_counter() - t_loop
    st1 = session.stats()

    eng = [sum(row["engine"]) for row in rows]
    mm = [sum(row["matmul"]) for row in rows]
    dg = [sum(row["dgefmm"]) for row in rows]
    p50 = statistics.median(eng)

    if args.trace == 0:
        metrics.update({
            "call_s.p50": p50,
            "gflops": w.flops / sum(
                statistics.median(row["engine"][ci] for row in rows)
                for ci in range(len(cases))) / 1e9,
            "vs_matmul": statistics.median(e / m for e, m in zip(eng, mm)),
            "vs_dgefmm": statistics.median(e / d for e, d in zip(eng, dg)),
            "rel_err": max(ch.max_err for ch in checkers["engine"]),
        })
    else:
        tail_s, tail_pct = tail(eng)
        n = len(rows)
        metrics.update({
            "engine.call_s.tail": tail_s,
            "engine.call_s.tail_pct": tail_pct,
            "engine.samples": n,
            "engine.compile_s": cold - p50,
            "engine.plan_misses": st1.plan_misses,
            "engine.plan_evictions": st1.plan_evictions,
            "engine.pooled_mb": st1.bytes_pooled / MIB,
            "engine.peak_scratch_mb": st1.peak_scratch_bytes / MIB,
            "engine.batched_executes":
                (st1.batched_executes - st0.batched_executes) / n,
            "engine.batch_fallbacks":
                (st1.batch_fallbacks - st0.batch_fallbacks) / n,
            "engine.plan_s": plan_seconds(session, cases),
            "baselines.matmul_s": statistics.median(mm),
            "baselines.dgefmm_s": statistics.median(dg),
        })
        metrics.update(layer_metrics(
            w, cases, checkers["engine"], tally, session.default_policy, p50,
            cfg.warm_rounds, cfg.pass_ops, cfg.pass_seconds,
        ))
    session.close()
    run_info = {"samples": len(rows), "loop_s": loop_s,
                "wall_s": time.perf_counter() - t_start}
    return metrics, run_info


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.quick:
        args.seconds = min(args.seconds, QUICK_SECONDS)
    if "numpy" in sys.modules:
        print("run.py: numpy was imported before the BLAS thread count was "
              "pinned; refusing to start", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: engine sources not found under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    os.environ.update(PINNED_ENV)
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import repro

    from workloads import WORKLOADS, Tally

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_units()
    units = layer_units if args.trace else e2e_units

    tally = Tally()
    metrics, run_info = run_workload(
        WORKLOADS[args.workload], args, QUICK if args.quick else FULL, tally)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    correct = (tally.failed == 0 and tally.baseline_failed == 0
               and metrics.get("trace.dropped", 0) == 0)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    prov = provenance(np, args)
    prov.update(run_info)
    print("# provenance " + json.dumps(prov))
    for name in units:
        print(f"{name:<28} {metrics[name]:>14.6g} {units[name]}")
    if args.out is not None:
        with args.out.open("a") as f:
            f.write(json.dumps({"provenance": prov, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
