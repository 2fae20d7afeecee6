"""Tests of the benchmark itself: its output checks catch corrupted outputs,
its tracer accounts for every traced second, and the metric names it prints
are those of BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run as bench
from fiberlink import cli
from tracing import PER_LAYER_UNITS, Tracer
from workloads import scenario_for

from conftest import PERFBENCH, REPO

SEED = 1


def _fiberlink_run(workload, out_dir, tracer=None):
    scenario = os.path.join(out_dir, "scenario.json")
    os.makedirs(out_dir, exist_ok=True)
    with open(scenario, "w", encoding="utf-8") as fh:
        json.dump(scenario_for(workload, SEED), fh)
    argv = ["run", scenario, "--seed", str(SEED), "--out", os.path.join(out_dir, "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            assert cli.main(argv) == 0
        else:
            with tracer.patched():
                assert tracer.call("cli.self", cli.main, argv) == 0
    return os.path.join(out_dir, "out")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Pristine outputs of every workload at one seed."""
    root = tmp_path_factory.mktemp("outputs")
    return {w: _fiberlink_run(w, str(root / w)) for w in checks.CHECKS}


@pytest.fixture
def corrupt(outputs, tmp_path):
    """Copy of a workload's outputs with one file edited by ``edit(rows)``."""
    def make(workload, name, edit):
        out = tmp_path / workload
        shutil.copytree(outputs[workload], out)
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        head = [line for line in lines if line.startswith("#")]
        header, rows = lines[len(head)], [line.split(",") for line in lines[len(head) + 1:]]
        edit(rows)
        path.write_text("\n".join(head + [header] + [",".join(r) for r in rows]) + "\n",
                        encoding="utf-8")
        return str(out)
    return make


def _verdict(workload, out_dir, check):
    return {name: ok for name, ok, _ in checks.run_checks(workload, out_dir)}[check.__name__]


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_checks_pass_on_real_outputs(outputs, workload):
    results = checks.run_checks(workload, outputs[workload])
    assert all(ok for _, ok, _ in results), results


def _scale_rows(pick, factor, column=1):
    def edit(rows):
        for row in rows:
            if pick(float(row[0])):
                row[column] = repr(float(row[column]) * factor)
    return edit


def _closed_equals_open(outputs, tau):
    open_rows = [line.split(",") for line in
                 open(os.path.join(outputs["fig1"], "open_loop.csv"), encoding="utf-8")
                 if line[0].isdigit()]
    open_sigma = next(r[1] for r in open_rows if float(r[0]) == tau)

    def edit(rows):
        for row in rows:
            if float(row[0]) == tau:
                row[1] = open_sigma
    return edit


def _shift_budget_mean(rows):
    for row in rows:
        if row[0] == "mean_offset":
            mean = float(row[1])
            row[1] = repr(mean + 20.0 if mean >= checks.BUDGET_MEAN_HZ else mean - 20.0)


def _alter_digit(column, position):
    """Add one to a digit of the first row whose field is at least 10 characters."""
    def edit(rows):
        row = next(r for r in rows if len(r[column]) >= 10)
        chars = list(row[column])
        chars[position] = str((int(chars[position]) + 1) % 10)
        row[column] = "".join(chars)
    return edit


@pytest.mark.parametrize("workload,name,edit,check", [
    ("fig1", "closed_loop_fullrate.csv", _scale_rows(lambda t: t == 1.0, 3.0),
     checks.fullrate_sigma_1s),
    ("fig1", "round_trip_psd.csv", _scale_rows(lambda f: 0.9 <= f <= 1.1, 10.0),
     checks.psd_band_1hz),
    ("longterm_10d", "closed_loop.csv", _scale_rows(lambda t: t == 86400.0, 10.0),
     checks.closed_sigma_1day),
    ("comb_3d", "comb_adev.csv", _scale_rows(lambda t: t == 1.0, 1.2), checks.comb_sigma_1s),
    ("comb_3d", "freq_estimate.csv", _shift_budget_mean, checks.budget_estimate),
    ("comb_3d", "comb_gates.csv", _alter_digit(2, -1), checks.gate_decimals),
    ("comb_3d", "comb_gates.csv", _alter_digit(1, 8), checks.gate_decimals),
    ("comb_3d", "comb_gates.csv", lambda rows: rows.pop(), checks.gate_decimals),
])
def test_check_fails_on_corrupted_output(corrupt, workload, name, edit, check):
    assert _verdict(workload, corrupt(workload, name, edit), check) is False


@pytest.mark.parametrize("workload", ["fig1", "longterm_10d"])
def test_ratio_check_fails_when_closed_loop_equals_open_loop(outputs, corrupt, workload):
    out = corrupt(workload, "closed_loop.csv", _closed_equals_open(outputs, 40000.0))
    assert _verdict(workload, out, checks.open_closed_ratio) is False


def test_missing_output_fails_without_raising(outputs, tmp_path):
    out = tmp_path / "comb_3d"
    shutil.copytree(outputs["comb_3d"], out)
    os.remove(out / "comb_gates.csv")
    results = {name: ok for name, ok, _ in checks.run_checks("comb_3d", str(out))}
    assert results == {"comb_sigma_1s": True, "budget_estimate": True, "gate_decimals": False}


def test_digest_sees_one_byte(outputs, tmp_path):
    names = ["comb_adev.csv", "comb_gates.csv"]
    before = checks.output_digest(outputs["comb_3d"], names)
    out = tmp_path / "comb_3d"
    shutil.copytree(outputs["comb_3d"], out)
    data = bytearray((out / "comb_gates.csv").read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    (out / "comb_gates.csv").write_bytes(bytes(data))
    assert checks.output_digest(str(out), names) != before


@pytest.mark.parametrize("workload", ["fig1", "comb_3d"])
def test_layer_self_times_add_up_to_the_run(tmp_path, workload):
    tracer = Tracer()
    _fiberlink_run(workload, str(tmp_path), tracer)
    metrics = tracer.metrics()
    assert set(metrics) == {n for n in PER_LAYER_UNITS if not n.startswith(("setup.", "trace."))}
    root = tracer.spans[0]
    assert root["key"] == "cli.self" and root["parent"] is None
    total = sum(v for n, v in metrics.items() if PER_LAYER_UNITS[n] == "s")
    assert total == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert all(v >= 0 for v in metrics.values())


def test_tracer_restores_the_program():
    from fiberlink import io as fio
    from fiberlink import scenario, series
    before = (scenario.psd_welch, fio.write_lines, series.PhaseSeries.__post_init__)
    tracer = Tracer()
    with tracer.patched():
        assert scenario.psd_welch is not before[0]
    assert (scenario.psd_welch, fio.write_lines, series.PhaseSeries.__post_init__) == before


def test_metric_names_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(checks.CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "comb_3d",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
