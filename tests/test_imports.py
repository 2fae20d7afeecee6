"""Which commands load scipy.signal or scipy.fft.

Importing scipy.signal takes about 0.9 s and 75 MB, and scipy.fft alone
about 0.2 s and 27 MB, so no command imports either.  The two filters (the
linear servo and the counting low-pass) load only the extension module that
holds lfilter's C routine (``link._linear_filter``), and FFT lengths come
from ``noise._fast_len``.  Each case runs in a fresh interpreter and reports
which of the two modules were loaded.  The filter itself is checked bit for
bit against ``scipy.signal.lfilter``, with the routine loaded before and
after scipy.signal.

An Allan deviation leaves numpy.ma unloaded too.

The names perfbench's tracer wraps must resolve too, so that removing one
fails here and not only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
import types

import pytest

import fiberlink as fl
from fiberlink.io import write_adev_csv

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fl.__file__)))
PROBED = ("scipy.signal", "scipy.fft")

SHORT_LINK = {"seed": 3, "preset": "fig1",
              "run": {"fullrate_duration_s": 10.0, "transient_discard_s": 2.0,
                      "decimated_duration_s": 400.0},
              "outputs": {"adev_taus_s": [1, 2, 5, 10], "fullrate_taus_s": [1, 2],
                          "psd_segment_s": 5.0}}


def fresh(code):
    """Run ``code`` in a fresh interpreter; the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def loaded(code):
    """The modules of ``PROBED`` that running ``code`` imported."""
    last = fresh(code + "\nimport json, sys\n"
                 f"print('loaded:', json.dumps([m for m in {PROBED!r} if m in sys.modules]))")
    assert last.startswith("loaded: "), last
    return json.loads(last.removeprefix("loaded: "))


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
        assert not loaded(
            "import fiberlink\nfiberlink.load_scenario({'seed': 1, 'preset': 'fig1'})")

    def test_validate(self, files):
        assert not loaded(cli("validate", files["fig1"]))

    def test_comb_and_budget_run(self, files):
        assert not loaded(cli("run", files["fig4_budget"], "--out", files["out"]))

    def test_compare(self, files):
        assert not loaded(cli("compare", files["adev"], files["adev"]))

    def test_stability_probe(self):
        # A loop's stability is decided by counting its polynomial's roots.
        assert not loaded(
            "import fiberlink\nfrom fiberlink.control import _unstable_poles\n"
            "assert _unstable_poles(fiberlink.ControllerConfig(700.0), 5e4, 1e-4, 2) == 2")

    def test_welch(self):
        # Welch is plain numpy.
        assert not loaded(
            "import numpy as np\nimport fiberlink\n"
            "x = fiberlink.PhaseSeries(np.arange(1000.0) ** 2, 1e-3)\n"
            "assert fiberlink.psd_welch(x, 100).values.size == 51")

    def test_decimated_suppression(self):
        # The decimated model's sensitivity is plain numpy.
        assert not loaded(
            "import numpy as np\nimport fiberlink\n"
            "from fiberlink.control import loop_sensitivity, loop_suppression\n"
            "cfg = fiberlink.ControllerConfig()\n"
            "assert loop_sensitivity([1.0], cfg, 5e4, 1e-4, 2).size == 1\n"
            "x = fiberlink.PhaseSeries(np.arange(1000.0), 1.0)\n"
            "assert len(loop_suppression(x, cfg, 5e4, 1e-4, 2)) == 1000")

    def test_link_run(self, files):
        # A full-rate link run filters, and pads the decimated model's FFTs.
        assert not loaded(cli("run", files["short_link"], "--out", files["out"]))

    def test_probe_sees_scipy_signal(self):
        # The probe itself works.
        assert loaded("import scipy.signal") == list(PROBED)


# Each filter's output and final state, run over the record in chunks of 1, 3
# and 777 samples, by the direct routine and by scipy.signal.lfilter, with
# the routine loaded before (order "direct") or after scipy.signal.
SAME_BITS = """
import sys
import numpy as np
from fiberlink.control import ControllerConfig, _loop_filter_polys
from fiberlink.link import Lowpass, _lfilter

def runs(filt):
    lowpass = Lowpass(10.0, 1e-4)
    # Each servo at m delay steps of 0.2 ms / m, all stable.
    polys = [(lowpass._b, lowpass._a)] + [
        _loop_filter_polys(ControllerConfig(), 5e4, 2e-4 / m, m) for m in (1, 2, 9, 40)]
    x = np.random.default_rng(11).standard_normal(1600)
    out = []
    for b, a in polys:
        for chunk in (1, 3, 777):
            zi = np.zeros(a.size - 1)
            ys = []
            for lo in range(0, x.size, chunk):
                y, zi = filt(b, a, x[lo:lo + chunk], zi)
                ys.append(y)
            out.append(np.concatenate(ys).tobytes() + zi.tobytes())
    return out

if ORDER == "direct":
    direct = runs(_lfilter)
    assert "scipy.signal" not in sys.modules
from scipy.signal import lfilter
if ORDER != "direct":
    direct = runs(_lfilter)
oracle = runs(lambda b, a, x, zi: lfilter(b, a, x, zi=zi))
print(len(direct), sum(d == o for d, o in zip(direct, oracle)))
"""


@pytest.mark.parametrize("order", ["direct", "scipy.signal"])
def test_direct_filter_has_lfilter_bits(order):
    assert fresh(f"ORDER = {order!r}\n" + SAME_BITS) == "15 15"


def test_tracer_targets_resolve():
    # The tracer is read and run from its source, so no bytecode is written
    # beside it; the benchmark may drop the file, and then there is nothing
    # to check.
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    if not os.path.exists(path):
        pytest.skip("perfbench/tracing.py is gone")
    with open(path, encoding="utf-8") as fh:
        tracing = types.ModuleType("perfbench_tracing")
        exec(compile(fh.read(), path, "exec"), tracing.__dict__)
    for owner, attr, _key, _work in tracing._targets():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_allan_leaves_numpy_ma_unloaded():
    # np.unique without return_index imports numpy.ma, 8-11 ms and about
    # 1.2 MB of a fresh process, so the taus are deduplicated in Python.
    assert fresh(
        "import sys\nimport numpy as np\nimport fiberlink\n"
        "x = fiberlink.PhaseSeries(np.arange(1000.0) ** 2, 1.0)\n"
        "fiberlink.allan_deviation_phase(x, [4, 1, 2, 2.0])\n"
        "print('numpy.ma' in sys.modules)") == "False"
