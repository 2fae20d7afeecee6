"""The CSV bytes of three short runs against a committed table of their
sha256 digests (``csv_digests.json``), so a change that moves any output
byte fails here rather than only in a hand-run ``cmp``.

The bytes depend on the numpy and scipy builds, so the table records the
versions it was made with and the tests skip under any others.  numpy
also picks its SIMD loops at run time, by the host's CPU features; one
test reruns the scenarios in a child process with every target above
numpy's baseline switched off (``NPY_DISABLE_CPU_FEATURES``), as on a
host without them, and compares the bytes.  It covers the levels from the
host's down to numpy's baseline, not an aarch64 host nor another numpy
build, and skips where numpy dispatches nothing above its baseline.
After a change that moves bytes on purpose, regenerate the table and say in
``CHANGES.md`` which files moved and why; the regeneration prints the
(scenario, file) entries that differ from the committed table:

    PYTHONPATH=src python tests/test_csv_digests.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy

import fiberlink as fl
from fiberlink.control import ControllerConfig, loop_suppression
from fiberlink.series import PhaseSeries

TABLE = pathlib.Path(__file__).with_name("csv_digests.json")
SEED = 1

# Short forms of the benchmark's workloads (perfbench/workloads.py): 20 s
# at full rate, a 2-day decimated model with walk FM on, 3,600 comb gates.
# ``comb_70k`` writes 70,000 gates, more than two of ``io._CHUNK_ROWS``, so
# its gate CSV crosses the writer's chunk boundaries; ``comb_20k``'s fits in
# one chunk.  ``fig1_wide``'s 10 s PSD segments (100,000 samples) each fill
# across two or more full-rate chunks (``scenario._CHUNK``).
SCENARIOS = {
    "fig1": {"preset": "fig1",
             "run": {"fullrate_duration_s": 20, "transient_discard_s": 5},
             "outputs": {"psd_segment_s": 5, "fullrate_taus_s": [1, 2, 4]}},
    "fig1_wide": {"preset": "fig1",
                  "run": {"fullrate_duration_s": 20, "transient_discard_s": 5},
                  "outputs": {"psd_segment_s": 10, "fullrate_taus_s": [1, 2, 4]}},
    "longterm_10d": {"preset": "fig1",
                     "link": {"noise": {"walk_fm_h": 1e-36}},
                     "run": {"fullrate_duration_s": 10, "transient_discard_s": 5},
                     "outputs": {"psd_segment_s": 5, "fullrate_taus_s": [1],
                                 "adev_taus_s": [1, 10, 100, 1000, 10000, 43200]}},
    "comb_3d": {"preset": "fig4", "comb": {"n_gates": 3600},
                "budget": {"enabled": True}},
    "comb_20k": {"preset": "fig4", "comb": {"n_gates": 20000}},
    "comb_70k": {"preset": "fig4", "comb": {"n_gates": 70000}},
}


def installed_versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def csv_digests(name, out_dir, seed=SEED):
    """sha256 of every file the run of ``SCENARIOS[name]`` writes to its manifest."""
    report = fl.run(fl.load_scenario(dict(SCENARIOS[name], seed=seed)), out_dir=out_dir)
    out_dir = pathlib.Path(out_dir)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in report.manifest}


@pytest.mark.parametrize("name", SCENARIOS)
def test_csv_bytes_match_table(tmp_path, name):
    table = json.loads(TABLE.read_text())
    if table["versions"] != installed_versions():
        pytest.skip(f"digests made with {table['versions']}; "
                    f"installed {installed_versions()}")
    assert csv_digests(name, tmp_path) == table["digests"][name]


# Runs beside the table's that the baseline check also makes: fig1's short
# form at the seeds whose burst amplitudes numpy's AVX-512 exp once rounded
# otherwise than its baseline loop.
BASELINE_RUNS = [(name, SEED) for name in SCENARIOS] + [("fig1", 5), ("fig1", 6)]

_CHILD = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
from test_csv_digests import csv_digests, dispatch_targets, suppressed_digest
out = pathlib.Path(sys.argv[2])
print(json.dumps({
    "dispatched": dispatch_targets(), "suppressed": suppressed_digest(),
    "digests": [csv_digests(name, out / f"{name}-{seed}", seed)
                for name, seed in json.loads(sys.argv[3])]}))
"""


def dispatch_targets():
    """The SIMD targets above numpy's baseline that it dispatches to here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def suppressed_digest():
    """sha256 of a seeded walk through fig1's near-end ``loop_suppression``
    at its decimated model's padded length, 174,960: the servo's sensitivity
    and its product with the spectrum, whose last bits a CSV's decimals may
    not show."""
    x = np.cumsum(np.random.default_rng(SEED).standard_normal(174_960))
    closed = loop_suppression(PhaseSeries(x, 1.0), ControllerConfig(300.0, 30.0),
                              5e4, 1e-4, 2)
    return hashlib.sha256(closed.samples.tobytes()).hexdigest()


def test_baseline_simd_level_gives_the_same_bytes(tmp_path):
    table = json.loads(TABLE.read_text())
    if table["versions"] != installed_versions():
        pytest.skip(f"digests made with {table['versions']}; "
                    f"installed {installed_versions()}")
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to nothing above its baseline here")
    src = str(pathlib.Path(fl.__file__).parent.parent)
    off = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *targets]).strip()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=off,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(pathlib.Path(__file__).parent), str(tmp_path),
         json.dumps(BASELINE_RUNS)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["dispatched"] == [], f"the child still dispatched to {child['dispatched']}"
    assert child["suppressed"] == suppressed_digest(), f"the suppression, with {targets} off"
    for (name, seed), digests in zip(BASELINE_RUNS, child["digests"], strict=True):
        want = table["digests"][name] if seed == SEED else \
            csv_digests(name, tmp_path / f"{name}-{seed}-here", seed)
        assert digests == want, f"{name} at seed {seed}, with {targets} off"


def moved_entries(old, new):
    """The (scenario, file) entries whose digest differs between two
    ``digests`` tables, or that only one of them has."""
    def flat(digests):
        return {(name, f): d for name, files in digests.items() for f, d in files.items()}
    old, new = flat(old), flat(new)
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: csv_digests(name, pathlib.Path(tmp) / name) for name in SCENARIOS}
    committed = json.loads(TABLE.read_text())
    if committed["versions"] != installed_versions():
        print(f"versions: {committed['versions']} -> {installed_versions()}")
    for name, f in moved_entries(committed["digests"], digests):
        print(f"moved: {name} {f}")
    TABLE.write_text(json.dumps({"versions": installed_versions(), "seed": SEED,
                                 "digests": digests}, indent=2) + "\n")
