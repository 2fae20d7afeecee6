import numpy as np
import pytest
from scipy.optimize import brentq

import fiberlink as fl
from fiberlink.control import _unstable_poles
from fiberlink.noise import component_rng


@pytest.fixture(scope="session")
def fig1_report(tmp_path_factory):
    """Paper-calibrated link preset, run once for the whole session."""
    scn = fl.load_scenario({"seed": 20260808, "preset": "fig1"})
    out = tmp_path_factory.mktemp("fig1")
    return fl.run(scn, out_dir=out), out


@pytest.fixture(scope="session")
def fig4_report(tmp_path_factory):
    scn = fl.load_scenario({"seed": 777, "preset": "fig4"})
    out = tmp_path_factory.mktemp("fig4")
    return fl.run(scn, out_dir=out), out


@pytest.fixture(scope="session")
def budget_report(tmp_path_factory):
    scn = fl.load_scenario({"seed": 4242, "preset": "budget"})
    out = tmp_path_factory.mktemp("budget")
    return fl.run(scn, out_dir=out), out


@pytest.fixture(scope="session")
def open_passes():
    """``open_passes(n1, n2, dt, m1, m2=m1, probe_det=None)``: the
    ``run_closed_loop`` result of a link whose servos are off, which is the
    two fiber passes alone: fiber 1 (``m1`` steps, record ``n1``), then
    fiber 2 (``m2`` steps, record ``n2``), with silent loop detectors."""
    ctl = fl.ControllerConfig()
    actuators = dict(rf_shifter=fl.ActuatorState(1e-6, 5e4),
                     piezo=fl.ActuatorState(1e-6, 5e3),
                     thermal=fl.ActuatorState(1e-5, 0.3))

    def passes(n1, n2, dt, m1, m2=None, probe_det=None):
        cfg = fl.LinkLoopConfig(dt=dt, m1=m1, m2=m1 if m2 is None else m2,
                                controller1=ctl, controller2=ctl, topology="off",
                                **actuators)
        z = np.zeros(len(n1))
        return fl.run_closed_loop(cfg, n1, n2, z, z, probe_det=probe_det)
    return passes


@pytest.fixture(scope="session")
def power_law_pair():
    """``power_law_pair(spec, ratio, n, tau0, seed)``: the two fiber records
    ``fiber_pair`` mixes from ``gen_power_law_phase`` draws, draw j from
    its own sub-seed of ``seed``.  The mix scales each draw where it lies,
    and a series' samples are read-only, so it is given a copy."""
    def pair(spec, ratio, n, tau0, seed):
        return fl.fiber_pair(ratio, lambda j: fl.gen_power_law_phase(
            spec, n, tau0, component_rng(seed, "pair", j).integers(2 ** 63)).samples.copy(),
            out=(np.empty(n), np.empty(n)))
    return pair


@pytest.fixture(scope="session")
def stability_edge():
    """``stability_edge(actuator_bw_hz, dt=1e-4, m=2, corner_hz=30.0)``: the
    unity-gain frequency at which the servo ``control._loop_filter_polys``
    builds turns unstable, bisected to 1e-6 Hz on ``control._unstable_poles``
    between 200 and 1000 Hz.  The defaults are fig1's servo."""
    def edge(actuator_bw_hz, dt=1e-4, m=2, corner_hz=30.0):
        def unstable(f):
            cfg = fl.ControllerConfig(unity_gain_hz=f, integrator_corner_hz=corner_hz)
            return _unstable_poles(cfg, actuator_bw_hz, dt, m) > 0
        lo, hi = 200.0, 1000.0
        assert not unstable(lo) and unstable(hi)
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if unstable(mid) else (mid, hi)
        return 0.5 * (lo + hi)
    return edge


@pytest.fixture(scope="session")
def loop_margins():
    """``loop_margins(L)``: (unity-gain crossing in Hz, phase margin in deg,
    gain margin in dB) of the open-loop gain ``L(f)``, for a crossing in
    100-500 Hz and arg L = -180 deg in 500-1000 Hz, as fig1's loop has."""
    def margins(L):
        f_u = brentq(lambda f: abs(L(f)) - 1.0, 100.0, 500.0, xtol=1e-12)
        # arg L = -180 deg where -L is real and positive.
        f_180 = brentq(lambda f: np.angle(-L(f)), 500.0, 1000.0, xtol=1e-12)
        return (f_u, 180.0 + np.degrees(np.angle(L(f_u))),
                -20.0 * np.log10(abs(L(f_180))))
    return margins
