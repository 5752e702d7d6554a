"""Command-line autotuner: ``python -m repro.tune 513 1024 --store plans.json``.

Tunes each given shape in a fresh :class:`repro.engine.GemmSession` and
persists the winners to the plan store, printing a per-shape report.
Shapes are ``N`` (square) or ``MxKxN``.  The store path comes from
``--store`` or the ``REPRO_PLAN_STORE`` environment variable; with
neither, the run is a dry run (results printed, nothing persisted).
"""

from __future__ import annotations

import argparse
import os
import sys

from .store import PLAN_STORE_ENV


def _parse_shape(text: str):
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            return int(parts[0])
        if len(parts) == 3:
            return tuple(int(p) for p in parts)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"shape must be N or MxKxN, got {text!r}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Tune GEMM plan decisions per shape and persist them "
        "to a cross-session plan store.",
    )
    parser.add_argument(
        "shapes", nargs="+", type=_parse_shape,
        help="problem shapes: N (square) or MxKxN",
    )
    parser.add_argument(
        "--store", default=None,
        help=f"plan store path (default: ${PLAN_STORE_ENV}, "
        "else dry run)",
    )
    parser.add_argument(
        "--machine", default="ultra", choices=("alpha", "ultra", "atom"),
        help="cachesim machine model for offline pruning (default: ultra)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5,
        help="interleaved timing rounds per candidate (default: 5)",
    )
    parser.add_argument(
        "--tiles", action="store_true",
        help="also search the (T, d) truncation grid "
        "(changes result bits vs the default plan)",
    )
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated leaf kernels to try "
        "(changes result bits vs the default plan)",
    )
    parser.add_argument(
        "--dtype", default="float64", choices=("float64", "float32"),
        help="computation dtype to tune for (default: float64)",
    )
    parser.add_argument(
        "--margin", type=float, default=0.01,
        help="fraction a challenger must beat the default by (default: 0.01)",
    )
    args = parser.parse_args(argv)

    from ..engine.session import GemmSession

    store_path = args.store or os.environ.get(PLAN_STORE_ENV, "").strip()
    session = GemmSession(plan_store=store_path or None)
    kernels = (
        tuple(k.strip() for k in args.kernels.split(",") if k.strip())
        if args.kernels else None
    )
    try:
        result = session.autotune(
            args.shapes,
            machine=args.machine,
            rounds=args.rounds,
            tiles=args.tiles,
            kernels=kernels,
            dtype=args.dtype,
            margin=args.margin,
        )
    finally:
        session.close()

    for rep in result.reports:
        m, k, n = rep.shape
        if rep.skipped is not None:
            print(f"{m}x{k}x{n}: skipped ({rep.skipped})")
            continue
        assert rep.winner is not None
        verdict = (
            "default confirmed" if rep.winner.is_default
            else f"improved {rep.improvement * 100.0:.1f}%"
        )
        print(
            f"{m}x{k}x{n}: {rep.candidates} candidates "
            f"({rep.survivors} tilings past the model) -> "
            f"{rep.winner.label} @ {rep.winner_seconds * 1e3:.2f} ms "
            f"({verdict})"
        )
    if result.store_path:
        print(f"store: {result.store_path} ({result.tuned} shapes tuned)")
    else:
        print("store: none (dry run; set --store or "
              f"${PLAN_STORE_ENV} to persist)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
