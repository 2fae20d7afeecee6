"""fiberlink benchmark: what one ``fiberlink run`` of a workload costs.

Run from the repository root:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh processes, one at a time, with the numpy/BLAS
thread pools pinned to one thread: first ``SETUP_PROBES`` interpreters that
each time ``import fiberlink`` plus ``load_scenario``, then one worker that
repeats ``fiberlink.cli.main(["run", ...])`` until its timed runs add up to
``--seconds``.  The first run's outputs are checked here; every later run
must reproduce their bytes.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
runs alternate and it carries the per-layer metrics instead.  Each workload's
full results, with library versions and output digest, go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS, scenario_for

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
SETUP_PROBES = 3
DEADLINE_S = 170.0
WORK_DIR = ".perfbench"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, deadline):
    """Run one child process to completion; its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Full results of one workload; ``result["line"]`` is the printed summary."""
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK_DIR, "work", workload)
    os.makedirs(work, exist_ok=True)
    scenario_path = os.path.join(work, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(scenario_for(workload, seed), fh)

    probes = [_child(["setup", scenario_path], deadline) for _ in range(SETUP_PROBES)]
    worker = _child(["run", scenario_path, work, str(seed), str(seconds),
                     "1" if trace else "0"], deadline)

    runs = worker["runs"]
    first = next((r for r in runs if "digest" in r), None)
    verdicts = None
    if first is not None:
        first_dir = os.path.join(work, "first")
        verdicts = checks.run_checks(workload, first_dir)
        shutil.rmtree(first_dir)
        # Runs that reproduced the first run's bytes share its verdict.
        for r in runs:
            if r.get("digest") == first["digest"]:
                r["problems"] += [f"{name}: {detail}" for name, ok, detail in verdicts if not ok]
    for r in runs:
        r["ok"] = not r["problems"]
    untraced = [r["run_s"] for r in runs if not r["traced"]]
    failed = sum(1 for r in runs if not r["ok"])
    if trace:
        traced = [r["run_s"] for r in runs if r["traced"]]
        values = dict(worker["layers"],
                      **{"setup.import_s": statistics.median(p["import_s"] for p in probes),
                         "setup.load_s": statistics.median(p["load_s"] for p in probes),
                         "trace.overhead_s": statistics.median(traced)
                         - statistics.median(untraced)})
        units = PER_LAYER_UNITS
    else:
        values = {"run_s": statistics.median(untraced),
                  "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in probes),
                  "peak_rss_mb": worker["peak_rss_mb"],
                  "ok_frac": (len(runs) - failed) / len(runs)}
        units = END_TO_END_UNITS
    line = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}

    first = first or {}
    results = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "versions": worker["versions"],
        "bytes_written": first.get("bytes_written"), "digest": first.get("digest"),
        "checks": verdicts, "run_s_samples": len(untraced),
        "setup_probes": probes, "runs": runs, "peak_rss_mb": worker["peak_rss_mb"],
        "line": line,
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    stem = os.path.join(WORK_DIR, "results", f"{workload}_seed{seed}_trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    if trace:
        with open(stem + "_spans.json", "w", encoding="utf-8") as fh:
            json.dump(worker["spans"], fh)
    return results


def _summary(results):
    line = results["line"]
    out = [f"{results['workload']}: seed {results['seed']}, {line['attempted']} runs, "
           f"{line['failed']} failed, {results['run_s_samples']} untraced timings, "
           f"digest {str(results['digest'])[:16]}, {results['bytes_written']} bytes written, "
           f"python {results['versions']['python']}, numpy {results['versions']['numpy']}, "
           f"scipy {results['versions']['scipy']}, nproc {results['nproc']}"]
    out += [f"  problem: {p}" for p in sorted({p for r in results["runs"] for p in r["problems"]})]
    for name, metric in line["metrics"].items():
        out.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fiberlink", "__init__.py")):
        print("perfbench: run from the root of a fiberlink checkout "
              "(src/fiberlink is missing)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print(_summary(res))
    if args.workload == "all":
        print(json.dumps({res["workload"]: res["line"] for res in results}))
    else:
        print(json.dumps(results[0]["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
