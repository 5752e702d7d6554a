"""Command-line entry for the experiment suite.

Examples::

    python -m repro.experiments fig2
    python -m repro.experiments fig3 --machine ultra
    python -m repro.experiments fig5 --quick
    python -m repro.experiments fig5-model --machine alpha
    python -m repro.experiments fig9 --scale 4
    python -m repro.experiments fig9 --explain 505
    python -m repro.experiments all --quick
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.timing import TimingProtocol
from . import (
    ext_accuracy,
    ext_attribution,
    ext_conflict_aware,
    ext_miss_classification,
    ext_parameters,
    ext_sensitivity,
    fig2_padding,
    fig3_tile_locality,
    fig56_perf,
    fig7_conversion,
    fig8_noconversion,
    fig9_cache,
)

QUICK_SIZES = [150, 200, 250, 300, 400, 500, 513]
QUICK_PROTOCOL = TimingProtocol(small_threshold=0, small_reps=1, trials=1)


def _sizes(args):
    if args.sizes:
        return [int(s) for s in args.sizes.split(",")]
    if args.quick:
        return QUICK_SIZES
    return None


def _protocol(args):
    return QUICK_PROTOCOL if args.quick else None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures.",
    )
    parser.add_argument(
        "figure",
        choices=[
            "fig2", "fig3", "fig5", "fig6", "fig5-model", "fig6-model",
            "fig7", "fig8", "fig9", "ext-conflict", "ext-classify",
            "ext-parameters", "ext-accuracy", "ext-attribution",
            "ext-assoc", "ext-workingset", "all",
        ],
    )
    parser.add_argument("--machine", default=None, choices=["alpha", "ultra", "atom"])
    parser.add_argument("--sizes", default="", help="comma-separated size list")
    parser.add_argument("--scale", type=int, default=4, help="fig9/model cache scale")
    parser.add_argument(
        "--quick", action="store_true", help="small grids, single trials"
    )
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of tables")
    parser.add_argument("--no-chart", action="store_true")
    parser.add_argument("--explain", type=int, default=0, metavar="N",
                        help="fig9: print the Section 4.2 conflict analysis for size N")
    args = parser.parse_args(argv)

    if args.figure == "fig9" and args.explain:
        print(fig9_cache.explain(args.explain))
        return 0

    results = []
    want = args.figure

    if want in ("fig2", "all"):
        sizes = _sizes(args) or range(16, 1101, 7 if args.quick else 1)
        results.append(fig2_padding.run(sizes=sizes))
    if want in ("fig3", "all"):
        machine = args.machine or "alpha"
        ldas = range(96, 321, 16) if args.quick else None
        results.append(fig3_tile_locality.run(machine=machine, ldas=ldas))
        if want == "all":
            results.append(fig3_tile_locality.run(machine="ultra", ldas=ldas))
    if want in ("fig5", "fig6", "all"):
        results.append(
            fig56_perf.run_measured(sizes=_sizes(args), protocol=_protocol(args))
        )
    if want in ("fig5-model", "fig6-model"):
        machine = args.machine or ("alpha" if want == "fig5-model" else "ultra")
        results.append(
            fig56_perf.run_modeled(machine=machine, sizes=_sizes(args), scale=16)
        )
    if want == "all":
        for machine in ("alpha", "ultra"):
            results.append(fig56_perf.run_modeled(
                machine=machine, sizes=_sizes(args), scale=16,
            ))
    if want in ("fig7", "all"):
        results.append(
            fig7_conversion.run(sizes=_sizes(args), protocol=_protocol(args))
        )
    if want in ("fig8", "all"):
        results.append(
            fig8_noconversion.run(sizes=_sizes(args), protocol=_protocol(args))
        )
    if want in ("fig9", "all"):
        results.append(fig9_cache.run(scale=args.scale))
    if want in ("ext-conflict", "all"):
        results.append(ext_conflict_aware.run(scale=args.scale))
    if want in ("ext-attribution", "all"):
        results.append(ext_attribution.run())
    if want in ("ext-classify", "all"):
        results.append(ext_miss_classification.run())
    if want in ("ext-accuracy", "all"):
        acc_sizes = _sizes(args) if args.sizes else ([64, 150] if args.quick else None)
        results.append(ext_accuracy.run(sizes=acc_sizes, trials=1 if args.quick else 3))
    if want in ("ext-assoc",):
        results.append(ext_sensitivity.run_associativity())
    if want in ("ext-workingset",):
        results.append(ext_sensitivity.run_working_set())
    if want in ("ext-parameters", "all"):
        param_sizes = [int(s) for s in args.sizes.split(",")] if args.sizes \
            else ([300] if args.quick else None)
        results.append(
            ext_parameters.run(sizes=param_sizes, protocol=_protocol(args))
        )

    for res in results:
        if args.csv:
            sys.stdout.write(res.to_csv())
        else:
            print(res.to_text(with_chart=not args.no_chart))
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
