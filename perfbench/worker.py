"""Fresh-process side of the benchmark; ``run.py`` starts it.

    worker.py setup <scenario.json>
        Time ``import fiberlink`` and ``load_scenario`` in this fresh
        interpreter; print ``{"import_s", "load_s"}``.
    worker.py run <scenario.json> <work_dir> <seed> <seconds> <trace>
        Repeat ``fiberlink.cli.main(["run", ...])`` until the runs add up to
        ``seconds``.  Keep the first run's outputs in ``<work_dir>/first`` for
        the output checks, which run outside this process so that they add
        nothing to its peak RSS; every later run must reproduce their bytes.
        Print each run's time and problems, this process's peak RSS and, with
        trace 1, the traced runs' per-layer metrics and spans.

The last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def setup(scenario_path):
    import fiberlink
    t_import = time.perf_counter()
    fiberlink.load_scenario(scenario_path)
    t_load = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "load_s": t_load - t_import}))


def _timed_run(cli, argv, tracer):
    """Exit code (None if it raised) and wall seconds of one ``fiberlink run``."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.patched():
                    code = tracer.call("cli.self", cli.main, argv)
    except Exception:  # a run that raises is counted as failed, not fatal
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def _manifest(out_dir, code):
    """Output files of a finished run, or the reason it has none."""
    if code is None:
        return None, "raised; traceback on stderr"
    if code != 0:
        return None, f"fiberlink run exited {code}"
    try:
        with open(os.path.join(out_dir, "run_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report["error"] is not None:
            return None, f"run_report.json error: {report['error']}"
        names = report["manifest"]
        for name in names:
            os.stat(os.path.join(out_dir, name))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable run report or outputs: {exc!r}"
    return names, None


def run(scenario_path, work_dir, seed, seconds, trace):
    import gc
    import resource
    import shutil
    import statistics

    import numpy
    import scipy
    from fiberlink import cli

    from checks import output_digest
    from tracing import Tracer

    out_dir = os.path.join(work_dir, "out")
    first_dir = os.path.join(work_dir, "first")
    shutil.rmtree(first_dir, ignore_errors=True)
    argv = ["run", scenario_path, "--seed", str(seed), "--out", out_dir]
    runs, layers, spans = [], [], []
    first = None   # the first run that wrote its outputs; later runs must match it
    while (not runs or sum(r["run_s"] for r in runs) < seconds
           or (trace and not layers)):
        # With tracing on, untraced and traced runs alternate.
        tracer = Tracer() if trace and len(runs) % 2 == 1 else None
        shutil.rmtree(out_dir, ignore_errors=True)
        record = {"traced": tracer is not None, "problems": []}
        code, record["run_s"] = _timed_run(cli, argv, tracer)
        names, problem = _manifest(out_dir, code)
        if problem:
            record["problems"].append(problem)
        else:
            record["digest"] = output_digest(out_dir, names)
            record["bytes_written"] = sum(
                os.path.getsize(os.path.join(out_dir, name)) for name in names)
            if first is None:
                first = record
                os.rename(out_dir, first_dir)   # run.py checks these outputs
            elif record["digest"] != first["digest"]:
                record["problems"].append("outputs differ from the first run at this seed")
        runs.append(record)
        if tracer is not None:
            layers.append(tracer.metrics())
            spans.append(tracer.dump())
        del tracer
        gc.collect()
    shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if layers:
        result["layers"] = {name: statistics.median(rep[name] for rep in layers)
                            for name in layers[0]}
        result["spans"] = spans
    print(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        scenario_path, work_dir, seed, seconds, trace = sys.argv[2:7]
        run(scenario_path, work_dir, int(seed), float(seconds), trace == "1")
