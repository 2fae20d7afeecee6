import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.control import ControllerConfig, LinkLoopConfig, run_closed_loop
from fiberlink.errors import InvalidInputError
from fiberlink.link import (ActuatorState, Carrier, DetectorConfig, FiberPath, actuator_alpha,
                            detect_phase, measurement_lowpass, propagate,
                            round_trip, sample_every, to_radians)
from fiberlink.series import PhaseSeries
from fiberlink.stability import psd_welch


def flat_noise(value, n, tau0, label="noise"):
    return PhaseSeries(np.full(n, value), tau0, label=label)


class TestToRadians:
    def test_picosecond_at_100mhz(self):
        x = flat_noise(1e-12, 10, 1e-4)
        rad = to_radians(x, Carrier(1e8))
        assert rad.samples[0] == pytest.approx(2 * np.pi * 1e8 * 1e-12)
        assert rad.samples[0] == pytest.approx(6.28e-4, rel=1e-2)

    def test_carrier_scaling(self):
        x = flat_noise(1e-12, 10, 1e-4)
        r100 = to_radians(x, Carrier(1e8))
        r1g = to_radians(x, Carrier(1e9))
        assert np.allclose(r1g.samples, 10 * r100.samples)


class TestPropagate:
    def test_adds_noise_and_delays_input(self):
        tau0 = 1e-4
        n = 100
        ramp = PhaseSeries(np.arange(n) * 1e-12, tau0)
        noise = flat_noise(1e-12, n, tau0)
        # base delay = exactly 3 steps: no sub-step remainder
        path = FiberPath(length_km=3 * tau0 / 5e-6, noise=noise)
        steps, remainder = path.delay_steps()
        assert steps == 3 and remainder == pytest.approx(0.0, abs=1e-20)
        out = propagate(ramp, path)
        assert np.allclose(out.samples[3:], ramp.samples[:-3] + 1e-12)

    def test_sub_step_remainder_is_static_offset(self):
        tau0 = 1e-4
        zeros = PhaseSeries(np.zeros(50), tau0)
        noise = flat_noise(0.0, 50, tau0)
        path = FiberPath(length_km=43.0, noise=noise)   # 0.215 ms -> 2 steps
        steps, remainder = path.delay_steps()
        assert steps == 2
        assert remainder == pytest.approx(0.215e-3 - 2e-4)
        out = propagate(zeros, path)
        assert np.allclose(out.samples, -remainder)

    def test_tau0_mismatch_rejected(self):
        x = PhaseSeries(np.zeros(10), 1e-4)
        noise = PhaseSeries(np.zeros(10), 1e-3)
        path = FiberPath(length_km=43.0, noise=noise)
        with pytest.raises(InvalidInputError):
            propagate(x, path)

    def test_fractional_error_is_noise_derivative(self):
        # d(delta_tau)/dt oracle by finite differences.
        tau0 = 1e-3
        n = 5000
        rng = np.random.default_rng(8)
        slow = np.cumsum(rng.standard_normal(n)) * 1e-15
        noise = PhaseSeries(slow, tau0)
        path = FiberPath(length_km=tau0 / 5e-6, noise=noise)  # delay = 1 step
        zeros = PhaseSeries(np.zeros(n), tau0)
        y = np.diff(propagate(zeros, path).samples) / tau0
        assert np.allclose(y, np.diff(slow) / tau0)


class TestRoundTrip:
    def test_pure_delay_composition(self):
        tau0 = 1e-4
        n = 200
        ramp = PhaseSeries(np.arange(n) * 1e-13, tau0)
        noise = flat_noise(0.0, n, tau0)
        path = FiberPath(length_km=2 * tau0 / 5e-6, noise=noise)  # 2 steps each way
        out = round_trip(ramp, path, path)
        assert np.allclose(out.samples[4:], ramp.samples[:-4])

    def test_same_fiber_doubles_slow_noise(self):
        tau0 = 1.0
        n = 500
        rng = np.random.default_rng(4)
        slow = np.cumsum(rng.standard_normal(n)) * 1e-13
        noise = PhaseSeries(slow, tau0)
        path = FiberPath(length_km=43.0, noise=noise)   # rounds to 0 steps at 1 s
        zeros = PhaseSeries(np.zeros(n), tau0)
        out = round_trip(zeros, path, path)
        static = 2 * path.delay_steps()[1]
        assert np.allclose(out.samples + static, 2 * slow)

    def test_86km_round_trip_delay(self):
        # 86 km at 5 us/km is 0.43 ms, the reported ~0.4 ms loop delay.
        noise = flat_noise(0.0, 10, 1e-4)
        path = FiberPath(length_km=43.0, noise=noise)
        assert 2 * path.base_delay_s == pytest.approx(0.43e-3)
        assert 2 * path.delay_steps()[0] * 1e-4 == pytest.approx(0.4e-3)


class TestDetectPhase:
    def test_equal_inputs_zero_floor(self):
        a = flat_noise(2e-12, 64, 1.0)
        out = detect_phase(a, a, DetectorConfig(), Carrier(1e8))
        assert np.all(out.samples == 0.0)

    def test_constant_offset(self):
        a = flat_noise(5e-12, 64, 1.0)
        b = flat_noise(2e-12, 64, 1.0)
        out = detect_phase(a, b, DetectorConfig(), Carrier(1e8))
        assert np.allclose(out.samples, 3e-12)

    def test_floor_requires_rng(self):
        a = flat_noise(0.0, 64, 1.0)
        cfg = DetectorConfig(floor_rad_per_rthz=1e-6)
        with pytest.raises(InvalidInputError):
            detect_phase(a, a, cfg, Carrier(1e8))

    def test_floor_reproduces_psd_level(self):
        # -120 dBrad^2/Hz floor at 100 MHz measures back within 1 dB at 1 Hz.
        tau0 = 1e-3
        n = 300_000
        a = PhaseSeries(np.zeros(n), tau0)
        cfg = DetectorConfig(floor_rad_per_rthz=1e-6)
        carrier = Carrier(1e8)
        out = detect_phase(a, a, cfg, carrier, rng=np.random.default_rng(12))
        psd = psd_welch(to_radians(out, carrier), segment=4096)
        level_db = 10 * np.log10(psd.band_mean(0.8, 1.25))
        assert level_db == pytest.approx(-120.0, abs=1.0)


class TestApplyActuator:
    """Actuators as the stepped servo engine applies them."""

    def test_rest_stays_at_zero(self):
        # Zero error everywhere: every actuator stays at rest, even with a
        # small range, and none is flagged as saturated.
        cfg = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0,
                               crossover_hz=0.1)
        link = LinkLoopConfig(
            dt=1e-4, m1=2, m2=2, controller1=cfg, controller2=cfg,
            rf_shifter=ActuatorState("rf_phase_shifter", 1e-11, 5e4),
            piezo=ActuatorState("piezo_stretcher", 1e-11, 1000.0),
            thermal=ActuatorState("thermal_spool", 1e-11, 0.3),
            topology="series")
        z = np.zeros(2000)
        res = run_closed_loop(link, z, z, z, z, engine="stepped")
        assert np.all(res.c1_applied == 0.0)
        assert np.all(res.a2_applied == 0.0)
        assert res.warnings == ()


class TestActuatorAlpha:
    def test_first_order_settling(self):
        # After ten time constants a first-order actuator is within 1 %.
        dt = 1e-4
        steps = int(10 / (50.0 * dt))
        remaining = (1.0 - actuator_alpha(50.0, dt)) ** steps
        assert remaining == pytest.approx(np.exp(-2 * np.pi * 10), rel=1e-9)
        assert remaining < 0.01

    def test_wideband_shifter_tracks_immediately(self):
        assert actuator_alpha(1e6, 1e-4) == pytest.approx(1.0, rel=1e-6)


class TestInvariantsAndChain:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e6, max_value=1e10))
    def test_carrier_linearity(self, freq):
        x = PhaseSeries(np.array([0.0, 1e-12, -2e-12]), 1.0)
        rad = to_radians(x, Carrier(freq))
        assert np.allclose(rad.samples, 2 * np.pi * freq * x.samples, rtol=1e-12)

    def test_measurement_lowpass_and_decimation(self):
        tau0 = 1e-3
        n = 20_000
        t = np.arange(n) * tau0
        x = PhaseSeries(np.sin(2 * np.pi * 1.0 * t), tau0)
        filtered = measurement_lowpass(x, 100.0)
        # 1 Hz tone passes a 100 Hz single pole nearly unchanged
        assert np.max(filtered.samples[5000:]) == pytest.approx(1.0, rel=0.01)
        dec = sample_every(filtered, 0.1)
        assert dec.tau0 == 0.1
        assert len(dec) == n // 100
        with pytest.raises(InvalidInputError):
            sample_every(filtered, 0.00037)
