import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberlink.control import ControllerConfig, LinkLoopConfig, run_closed_loop
from fiberlink.errors import InvalidInputError
from fiberlink.link import (ActuatorState, Carrier, DetectorConfig, actuator_alpha,
                            detector_noise, measurement_lowpass, sample_every,
                            to_radians)
from fiberlink.scenario import _delay_steps
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
    def test_adds_noise_and_delays_input(self, open_passes):
        # Fiber 1's arrival is the input to the 3-step pass through fiber 2.
        tau0 = 1e-4
        n = 100
        ramp = np.arange(n) * 1e-12
        res = open_passes(ramp, np.full(n, 1e-12), tau0, 2, 3)
        assert np.array_equal(res.one_way, ramp)
        assert np.allclose(res.round_trip[3:], ramp[:-3] + 1e-12)

    def test_fractional_error_is_noise_derivative(self, open_passes):
        # d(delta_tau)/dt oracle by finite differences.
        tau0 = 1e-3
        n = 5000
        rng = np.random.default_rng(8)
        slow = np.cumsum(rng.standard_normal(n)) * 1e-15
        res = open_passes(slow, np.zeros(n), tau0, 1)   # delay = 1 step
        y = np.diff(res.one_way) / tau0
        assert np.allclose(y, np.diff(slow) / tau0)


class TestRoundTrip:
    def test_pure_delay_composition(self, open_passes):
        # Noise-free fiber 2: the round trip is fiber 1's record delayed by
        # fiber 2's pass, its pre-history held at the first value; the probe
        # adds fiber 1's record to itself delayed by fiber 1's pass.
        tau0 = 1e-4
        n = 200
        ramp = np.arange(1, n + 1) * 1e-13
        res = open_passes(ramp, np.zeros(n), tau0, 2, 3)
        assert np.array_equal(res.round_trip[3:], ramp[:-3])
        assert np.all(res.round_trip[:3] == ramp[0])
        assert np.array_equal(res.probe_rt[2:], ramp[:-2] + ramp[2:])

    def test_same_fiber_doubles_slow_noise(self, open_passes):
        # Both passes share the noise: the round trip is twice the slow
        # record, off by at most its change over the 1-step delay.
        tau0 = 1.0
        n = 500
        rng = np.random.default_rng(4)
        slow = np.cumsum(rng.standard_normal(n)) * 1e-13
        res = open_passes(slow, slow, tau0, 1)
        assert np.max(np.abs(res.round_trip - 2 * slow)) <= np.max(np.abs(np.diff(slow)))

    def test_86km_round_trip_delay(self):
        # 86 km at 5 us/km is 0.43 ms, the reported ~0.4 ms loop delay: each
        # 0.215 ms pass is 2 steps of 0.1 ms.
        link = {"length_km": 43.0, "delay_per_km_s": 5e-6, "step_s": 1e-4}
        assert 2 * link["length_km"] * link["delay_per_km_s"] == pytest.approx(0.43e-3)
        assert _delay_steps(link) == 2
        assert 2 * _delay_steps(link) * link["step_s"] == pytest.approx(0.4e-3)


class TestDetectPhase:
    """The detector's white floor as the scenario draws it for each loop."""

    def test_equal_inputs_zero_floor(self):
        out = detector_noise(DetectorConfig(), Carrier(1e8), 64, 1.0,
                             np.random.default_rng(0))
        assert np.all(out == 0.0)

    def test_out_takes_the_draw(self):
        cfg, carrier = DetectorConfig(floor_rad_per_rthz=1e-6), Carrier(1e8)
        want = detector_noise(cfg, carrier, 1000, 1e-3, np.random.default_rng(5))
        out = np.full(1000, np.nan)
        got = detector_noise(cfg, carrier, 1000, 1e-3, np.random.default_rng(5), out=out)
        assert got is out and out.tobytes() == want.tobytes()
        got = detector_noise(DetectorConfig(), carrier, 1000, 1e-3, None, out=out)
        assert got is out and np.all(out == 0.0)

    def test_constant_offset(self, open_passes):
        # The probe's detector record adds to what the probe detects.
        n = 64
        res = open_passes(np.full(n, 2e-12), np.zeros(n), 1.0, 2,
                          probe_det=np.full(n, 3e-12))
        assert np.allclose(res.probe_rt, 7e-12)

    def test_floor_reproduces_psd_level(self):
        # -120 dBrad^2/Hz floor at 100 MHz measures back within 1 dB at 1 Hz.
        tau0 = 1e-3
        n = 300_000
        cfg = DetectorConfig(floor_rad_per_rthz=1e-6)
        carrier = Carrier(1e8)
        out = detector_noise(cfg, carrier, n, tau0, np.random.default_rng(12))
        psd = psd_welch(to_radians(PhaseSeries(out, tau0), carrier), segment=4096)
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

    # The coefficient at each actuator and measurement bandwidth and servo
    # step the presets and tests use, as numpy's exp gave it at x86-64-v2
    # and v4 (1 s: the decimated step); math.exp gives the same bits, so no
    # CSV moved when actuator_alpha took it.
    STEPS = (1e-4, 5e-5, 2 ** -13, 1.0)
    PINNED = {
        50000.0: ('0x1.fffffffffff33p-1', '0x1.fffffaf17b658p-1', '0x1.0000000000000p+0',
                  '0x1.0000000000000p+0'),
        5000.0: ('0x1.e9dfdd84a6711p-1', '0x1.9590cee422608p-1', '0x1.f4f0888b0303ap-1',
                 '0x1.0000000000000p+0'),
        0.3: ('0x1.8b443ee74c000p-13', '0x1.8b49039c18000p-14', '0x1.e27e3d116c000p-13',
              '0x1.b24293e8432a2p-1'),
        1.0: ('0x1.4950ff6831400p-11', '0x1.495e3d8317800p-12', '0x1.91f83d6006800p-11',
              '0x1.ff0b3b0514900p-1'),
        10.0: ('0x1.9a7be16f7c080p-8', '0x1.9b20f222ea700p-9', '0x1.f4bb6a02ba900p-8',
               '0x1.0000000000000p+0'),
        30.0: ('0x1.31f04c2457360p-6', '0x1.33615ed2cdd00p-7', '0x1.74afdcf9dc260p-6',
               '0x1.0000000000000p+0'),
        100.0: ('0x1.f2e1b06914c10p-5', '0x1.fab7a56430a20p-6', '0x1.2e69e26f1e9d8p-4',
                '0x1.0000000000000p+0'),
        1000.0: ('0x1.ddb54c3fd53d8p-2', '0x1.1411512424880p-2', '0x1.12390763d2360p-1',
                 '0x1.0000000000000p+0'),
    }

    @pytest.mark.parametrize("bandwidth_hz", sorted(PINNED))
    def test_pinned_bits(self, bandwidth_hz):
        got = [float(actuator_alpha(bandwidth_hz, dt)).hex() for dt in self.STEPS]
        assert got == list(self.PINNED[bandwidth_hz])


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

    def test_sample_every_copies_the_points(self):
        # A strided view would keep the whole record alive.
        x = PhaseSeries(np.arange(1000.0), 1e-3)
        points = sample_every(x, 0.1).samples
        assert points.base is None and points.nbytes == 10 * 8
        assert np.array_equal(points, x.samples[::100])
