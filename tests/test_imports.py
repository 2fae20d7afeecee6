"""Which commands load scipy.signal.

Importing scipy.signal takes about 0.9 s and 75 MB, so only the functions
that filter (the linear servo and the counting low-pass) import it.  Loading,
validating, Welch, the decimated loop model, the comb chain, the budget and
``compare`` must not.  Each case runs in a fresh interpreter and reports
whether the module was loaded.

The names perfbench's tracer wraps must resolve too, so that removing one
fails here and not only in a traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import fiberlink as fl
from fiberlink.io import write_adev_csv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fl.__file__)))

SHORT_LINK = {"seed": 3, "preset": "fig1",
              "run": {"fullrate_duration_s": 10.0, "transient_discard_s": 2.0,
                      "decimated_duration_s": 400.0},
              "outputs": {"adev_taus_s": [1, 2, 5, 10], "fullrate_taus_s": [1, 2],
                          "psd_segment_s": 5.0}}


def loads_scipy_signal(code):
    """Run ``code`` in a fresh interpreter; True if scipy.signal got imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print('scipy.signal loaded:', 'scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("scipy.signal loaded: "), proc.stdout
    return last.endswith("True")


def cli(*argv):
    return f"from fiberlink.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.fixture
def files(tmp_path):
    def scenario(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    curve = fl.AdevCurve([1.0, 10.0], [2e-14, 2e-15], [9, 9], "standard")
    write_adev_csv(tmp_path / "a.csv", curve, seed=1)
    return {
        "fig1": scenario("fig1.json", {"seed": 1, "preset": "fig1"}),
        "fig4_budget": scenario("fig4.json", {"seed": 1, "preset": "fig4",
                                              "budget": {"enabled": True}}),
        "short_link": scenario("link.json", SHORT_LINK),
        "adev": str(tmp_path / "a.csv"),
        "out": str(tmp_path / "out"),
    }


class TestScipySignalImport:
    def test_import_and_load(self):
        assert not loads_scipy_signal(
            "import fiberlink\nfiberlink.load_scenario({'seed': 1, 'preset': 'fig1'})")

    def test_validate(self, files):
        assert not loads_scipy_signal(cli("validate", files["fig1"]))

    def test_comb_and_budget_run(self, files):
        assert not loads_scipy_signal(cli("run", files["fig4_budget"], "--out", files["out"]))

    def test_compare(self, files):
        assert not loads_scipy_signal(cli("compare", files["adev"], files["adev"]))

    def test_stability_probe(self):
        # The delay-limited boundary is decided from polynomial roots.
        assert not loads_scipy_signal(
            "import fiberlink\nfiberlink.integrator_loop_diverges(700.0, 0.4e-3)\n"
            "fiberlink.find_divergence_onset(0.4e-3)")

    def test_welch(self):
        # Welch is plain numpy.
        assert not loads_scipy_signal(
            "import numpy as np\nimport fiberlink\n"
            "x = fiberlink.PhaseSeries(np.arange(1000.0) ** 2, 1e-3)\n"
            "assert fiberlink.psd_welch(x, 100).values.size == 51")

    def test_decimated_suppression(self):
        # The decimated model's sensitivity is plain numpy.
        assert not loads_scipy_signal(
            "import numpy as np\nimport fiberlink\n"
            "from fiberlink.control import loop_sensitivity, loop_suppression\n"
            "cfg = fiberlink.ControllerConfig()\n"
            "assert loop_sensitivity([1.0], cfg, 5e4, 1e-4, 2).size == 1\n"
            "x = fiberlink.PhaseSeries(np.arange(1000.0), 1.0)\n"
            "assert len(loop_suppression(x, cfg, 5e4, 1e-4, 2)) == 1000")

    def test_link_run_loads_it(self, files):
        # The probe itself works: a full-rate link run filters.
        assert loads_scipy_signal(cli("run", files["short_link"], "--out", files["out"]))


def test_tracer_targets_resolve():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _key, _work in tracing._targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
