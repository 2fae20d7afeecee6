import numpy as np
import pytest

import fiberlink as fl
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
    actuators = dict(rf_shifter=fl.ActuatorState("rf_phase_shifter", 1e-6, 5e4),
                     piezo=fl.ActuatorState("piezo_stretcher", 1e-6, 5e3),
                     thermal=fl.ActuatorState("thermal_spool", 1e-5, 0.3))

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
    its own sub-seed of ``seed``."""
    def pair(spec, ratio, n, tau0, seed):
        return fl.fiber_pair(ratio, lambda j: fl.gen_power_law_phase(
            spec, n, tau0, component_rng(seed, "pair", j).integers(2 ** 63)).samples)
    return pair
