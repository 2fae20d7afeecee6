"""Command-line interface.

    fiberlink run <scenario.json> [--seed N] [--out DIR]
    fiberlink validate <scenario.json>
    fiberlink compare <a.csv> <b.csv>

Exit codes: 0 success, 1 validation failure (or any other refused input
during a run), 2 runtime divergence.  The default output directory comes
from $FIBERLINK_OUT.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (DivergenceError, FiberLinkError, InvalidInputError,
                     ScenarioValidationError)
from .io import read_adev_csv
from .scenario import _load, compare_curves, load_scenario, resolve_out_dir, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fiberlink",
        description="Simulate and analyze phase-compensated fiber frequency dissemination.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write CSV outputs")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: $FIBERLINK_OUT or ./fiberlink_out)")

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario", help="scenario JSON file")

    p_cmp = sub.add_parser("compare", help="per-tau ratio of two Allan CSV files")
    p_cmp.add_argument("curve_a")
    p_cmp.add_argument("curve_b")
    return parser


def _cmd_run(args):
    try:
        scenario = _load(args.scenario, args.seed)
    except ScenarioValidationError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = resolve_out_dir(args.out)
    try:
        report = run(scenario, out_dir=out_dir)
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        print(f"partial report written to {out_dir}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except FiberLinkError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"run complete in {report.wall_time_s:.2f} s (seed {report.seed})")
    for name in report.manifest:
        print(f"  wrote {name}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    return EXIT_OK


def _cmd_validate(args):
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioValidationError as exc:
        print("invalid scenario:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"scenario OK (source {scenario.source})")
    if scenario.assumed:
        print("assumed calibration defaults in effect:")
        for path in scenario.assumed:
            print(f"  assumed: {path}")
    return EXIT_OK


def _cmd_compare(args):
    try:
        a = read_adev_csv(args.curve_a)
        b = read_adev_csv(args.curve_b)
        cmp = compare_curves(a, b)
    except (InvalidInputError, OSError) as exc:
        print(f"compare failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("tau_s,ratio_a_over_b")
    for tau, ratio in zip(cmp.taus, cmp.ratios):
        print(f"{tau:g},{ratio:.6g}")
    print(f"# min ratio {cmp.min_ratio:.6g}, max ratio {cmp.max_ratio:.6g}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_validate, "compare": _cmd_compare}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
