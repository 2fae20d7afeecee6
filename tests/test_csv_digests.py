"""The CSV bytes of three short runs against a committed table of their
sha256 digests (``csv_digests.json``), so a change that moves any output
byte fails here rather than only in a hand-run ``cmp``.

The bytes depend on the numpy and scipy builds (and may depend on the
CPU features numpy dispatches on), so the table records the versions it
was made with and the test skips under any others.  After a
change that moves bytes on purpose, regenerate the table and say in
``CHANGES.md`` which files moved and why; the regeneration prints the
(scenario, file) entries that differ from the committed table:

    PYTHONPATH=src python tests/test_csv_digests.py
"""

import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
import scipy

import fiberlink as fl

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


def csv_digests(name, out_dir):
    """sha256 of every file the run of ``SCENARIOS[name]`` writes to its manifest."""
    report = fl.run(fl.load_scenario(dict(SCENARIOS[name], seed=SEED)), out_dir=out_dir)
    out_dir = pathlib.Path(out_dir)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in report.manifest}


@pytest.mark.parametrize("name", SCENARIOS)
def test_csv_bytes_match_table(tmp_path, name):
    table = json.loads(TABLE.read_text())
    if table["versions"] != installed_versions():
        pytest.skip(f"digests made with {table['versions']}; "
                    f"installed {installed_versions()}")
    assert csv_digests(name, tmp_path) == table["digests"][name]


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
