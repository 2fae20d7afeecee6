import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.control import (ControllerConfig, LinkLoopConfig, _loop_filter_polys,
                               critical_frequency, find_divergence_onset,
                               integrator_loop_diverges, loop_gain,
                               loop_suppression, run_closed_loop)
from fiberlink.errors import DivergenceError, InvalidInputError
from fiberlink.link import ActuatorState, FiberPath, propagate
from fiberlink.series import PhaseSeries

ENGINES = ("lfilter", "stepped")
CFG = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0)
CFG_OPT = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0,
                           crossover_hz=0.1)


def make_link(dt=1e-4, m=2, topology="series", c1=CFG, c2=CFG_OPT,
              rf_range=1e-6, pz_range=1e-6, th_range=1e-5,
              pz_bw=5e3, th_bw=0.3):
    return LinkLoopConfig(
        dt=dt, m1=m, m2=m, controller1=c1, controller2=c2,
        rf_shifter=ActuatorState("rf_phase_shifter", rf_range, 5e4),
        piezo=ActuatorState("piezo_stretcher", pz_range, pz_bw),
        thermal=ActuatorState("thermal_spool", th_range, th_bw),
        topology=topology)


class TestCriticalFrequency:
    def test_reported_delay(self):
        # 0.4 ms round trip puts the instability boundary at 625 Hz.
        assert critical_frequency(0.4e-3) == pytest.approx(625.0)

    def test_default_margin_from_loop_gain(self):
        # |kp/s + ki/s^2| = 1 solves in closed form for the unity-gain
        # frequency; the phase there is -90 deg - atan(ki/(kp w)) - w tau.
        tau = 0.4e-3
        cfg = ControllerConfig()
        kp, ki = cfg.gains()
        w_u = np.sqrt((kp ** 2 + np.sqrt(kp ** 4 + 4 * ki ** 2)) / 2)
        f_u = w_u / (2 * np.pi)
        L = loop_gain([f_u], cfg, tau)[0]
        assert abs(L) == pytest.approx(1.0, rel=1e-12)
        margin = 180.0 + np.degrees(np.angle(L))
        analytic = 90.0 - np.degrees(np.arctan(ki / (kp * w_u)) + w_u * tau)
        assert margin == pytest.approx(analytic, abs=1e-9)
        assert margin == pytest.approx(40.90, abs=0.005)
        assert f_u / critical_frequency(tau) == pytest.approx(0.482, abs=5e-4)

    def test_inverse_proportionality(self):
        assert critical_frequency(0.8e-3) == pytest.approx(312.5)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-5, max_value=1e-1))
    def test_scaling_property(self, delay):
        assert critical_frequency(2 * delay) == pytest.approx(
            critical_frequency(delay) / 2, rel=1e-12)

    def test_invalid_delay(self):
        with pytest.raises(InvalidInputError):
            critical_frequency(0.0)


class TestStepControllers:
    """Servo behaviours at the controller level, through ``run_closed_loop``.

    Clamping, anti-windup and offload exist only in the stepped engine.
    """

    def test_zero_error_zero_command(self):
        z = np.zeros(5000)
        res = run_closed_loop(make_link(), z, z, z, z, engine="stepped")
        assert np.all(res.c1_applied == 0.0)
        assert res.warnings == ()

    def test_optical_far_end_zero(self):
        # The far-end loop alone, offload on: piezo and thermal stay at rest.
        z = np.zeros(5000)
        res = run_closed_loop(make_link(topology="independent", pz_range=1e-11,
                                        th_range=1e-9),
                              z, z, z, z, engine="stepped")
        assert np.all(res.a2_applied == 0.0)
        assert res.warnings == ()

    def test_static_conjugation_identity(self):
        # A static delay delta on fiber 1 is a round-trip error 2*delta: the
        # pre-correction settles at -delta and the one-way residual vanishes.
        delta = 3e-12
        n = 40_000
        z = np.zeros(n)
        for engine in ENGINES:
            res = run_closed_loop(make_link(), np.full(n, delta), z, z, z,
                                  engine=engine)
            assert res.c1_applied[-1] == pytest.approx(-delta, rel=1e-3), engine
            assert res.one_way[-1] == pytest.approx(0.0, abs=1e-17), engine

    def test_offload_desaturates_piezo(self):
        # An 80 ps drift on fiber 2 exceeds the 30 ps piezo range.  With
        # offload the thermal spool absorbs it and the correction reaches
        # -80 ps; without, it stays pinned at the piezo's range.
        dt = 1e-2
        n = 30_000
        drift = np.minimum(np.arange(n) * dt / 30.0, 1.0) * 8e-11
        z = np.zeros(n)
        for crossover_hz, settled, warning in (
                (0.01, -8e-11, "piezo_stretcher saturated (offload engaged)"),
                (0.0, -3e-11, "piezo_stretcher saturated")):
            c2 = ControllerConfig(unity_gain_hz=3.0, integrator_corner_hz=0.3,
                                  crossover_hz=crossover_hz)
            cfg = make_link(dt=dt, m=1, topology="independent", c2=c2,
                            pz_range=3e-11, th_range=1e-8, pz_bw=50.0, th_bw=0.2)
            res = run_closed_loop(cfg, z, drift, z, z, engine="stepped")
            assert res.warnings == (warning,)
            assert res.a2_applied[-1] == pytest.approx(settled, rel=0.05)

    def test_rf_clamp(self):
        # A 3 ps drift against a 1 ps RF shifter: the stepped engine clamps
        # the correction at the range and flags it.
        n = 20_000
        z = np.zeros(n)
        res = run_closed_loop(make_link(rf_range=1e-12), np.full(n, 3e-12), z, z, z,
                              engine="stepped")
        assert np.max(np.abs(res.c1_applied)) == pytest.approx(1e-12, rel=1e-9)
        assert "rf_phase_shifter saturated" in res.warnings


class TestClosedLoopRun:
    def test_zero_noise_zero_outputs(self):
        n = 5000
        z = np.zeros(n)
        res = run_closed_loop(make_link(), z, z, z, z)
        assert np.all(res.one_way == 0.0)
        assert np.all(res.round_trip == 0.0)
        assert np.all(res.probe_rt == 0.0)

    def test_disabled_equals_open_propagation_exactly(self):
        dt = 1e-4
        n = 4000
        rng = np.random.default_rng(2)
        n1 = np.cumsum(rng.standard_normal(n)) * 1e-15
        n2 = np.cumsum(rng.standard_normal(n)) * 1e-15
        z = np.zeros(n)
        res = run_closed_loop(make_link(topology="off"), n1, n2, z, z)

        zeros = PhaseSeries(np.zeros(n), dt)
        path1 = FiberPath(length_km=2 * dt / 5e-6, noise=PhaseSeries(n1, dt))
        path2 = FiberPath(length_km=2 * dt / 5e-6, noise=PhaseSeries(n2, dt))
        one_way = propagate(zeros, path1)
        rt = propagate(one_way, path2)
        assert np.array_equal(res.one_way, one_way.samples)
        assert np.array_equal(res.round_trip, rt.samples)

    def test_engines_agree_when_linear(self):
        n = 30_000
        rng = np.random.default_rng(5)
        n1 = rng.standard_normal(n) * 1.5e-13
        n2 = rng.standard_normal(n) * 1.5e-13
        d1 = rng.standard_normal(n) * 1.7e-13
        d2 = rng.standard_normal(n) * 1.7e-13
        c2 = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0,
                              crossover_hz=0.0)
        cfg = make_link(c2=c2)
        ra = run_closed_loop(cfg, n1, n2, d1, d2, engine="lfilter")
        rb = run_closed_loop(cfg, n1, n2, d1, d2, engine="stepped")
        scale = np.max(np.abs(ra.a2_applied))
        assert np.max(np.abs(ra.c1_applied - rb.c1_applied)) < 1e-9 * scale
        assert np.max(np.abs(ra.a2_applied - rb.a2_applied)) < 1e-9 * scale
        assert np.max(np.abs(ra.round_trip - rb.round_trip)) < 1e-9 * scale

    def test_in_band_tone_suppressed_20db(self):
        # 10 Hz perturbation (well below the 300 Hz band edge).
        assert self._tone_residual(10.0) < 0.1

    def test_in_band_suppression_below_tenth_unity(self):
        assert self._tone_residual(29.0) <= 0.1

    def test_out_of_band_transparency(self):
        # Tones a decade above unity gain pass within 3 dB.
        for freq in (3000.0, 4000.0):
            r = self._tone_residual(freq, dt=2e-5, m=10)
            assert 10 ** (-3 / 20) < r < 10 ** (3 / 20)

    @staticmethod
    def _tone_residual(freq, dt=1e-4, m=2, duration=20.0):
        n = int(duration / dt)
        t = np.arange(n) * dt
        amp = 1e-12
        n1 = amp * np.sin(2 * np.pi * freq * t)
        z = np.zeros(n)
        res = run_closed_loop(make_link(dt=dt, m=m), n1, z, z, z)
        seg = res.one_way[n // 2:]
        ts = t[n // 2:]
        i = 2 * np.mean(seg * np.sin(2 * np.pi * freq * ts))
        q = 2 * np.mean(seg * np.cos(2 * np.pi * freq * ts))
        return float(np.hypot(i, q) / amp)

    def test_unstable_gain_raises_divergence(self):
        n = 20_000
        rng = np.random.default_rng(1)
        n1 = rng.standard_normal(n) * 1e-13
        z = np.zeros(n)
        hot = ControllerConfig(unity_gain_hz=700.0, integrator_corner_hz=30.0)
        cfg = LinkLoopConfig(
            dt=1e-4, m1=2, m2=2, controller1=hot, controller2=CFG_OPT,
            rf_shifter=ActuatorState("rf_phase_shifter", 1e-6, 5e4),
            piezo=ActuatorState("piezo_stretcher", 1e-6, 5e3),
            thermal=ActuatorState("thermal_spool", 1e-5, 0.3))
        with pytest.raises(DivergenceError):
            run_closed_loop(cfg, n1, z, z, z)

    def test_engines_share_one_divergence_rule(self):
        # The 700 Hz loop above, with actuator ranges no correction reaches
        # before the run ends, so no clamp engages.
        n = 20_000
        rng = np.random.default_rng(1)
        n1 = rng.standard_normal(n) * 1e-13
        z = np.zeros(n)
        cfg = make_link(c1=ControllerConfig(unity_gain_hz=700.0, integrator_corner_hz=30.0),
                        rf_range=1e100, pz_range=1e100, th_range=1e100)
        errors = []
        for engine in ENGINES:
            with pytest.raises(DivergenceError) as err:
                run_closed_loop(cfg, n1, z, z, z, engine=engine)
            errors.append(err.value)
        linear, stepped = errors
        assert stepped.step == linear.step
        assert str(stepped) == str(linear)


class TestStabilityBoundary:
    def test_converges_below_diverges_above(self):
        assert not integrator_loop_diverges(300.0, 0.4e-3)
        assert integrator_loop_diverges(700.0, 0.4e-3)

    def test_onset_matches_analytic_within_10pct(self):
        onset = find_divergence_onset(0.4e-3)
        assert onset == pytest.approx(critical_frequency(0.4e-3), rel=0.10)


class TestLoopPolynomialOracle:
    """Stability decided from the roots of the discrete loop polynomial,
    checked against closed forms."""

    # The probe's denominator 1 - z^-1 + g z^-M has a root on the unit
    # circle, z = exp(j theta), when 2 sin(theta/2) = g and (M - 1/2) theta
    # = pi/2: theta = pi / (2M - 1), so g = 2 pi f dt crosses 1 at
    # f = sin(pi / (2 (2M - 1))) / (pi dt).
    DELAY_S = 0.4e-3
    DT = 1e-5
    M = 40
    F_CROSS = np.sin(np.pi / (2 * (2 * M - 1))) / (np.pi * DT)

    def test_probe_flips_at_the_crossing(self):
        f = self.F_CROSS
        assert f == pytest.approx(632.8697, abs=1e-4)
        assert not integrator_loop_diverges(f * (1 - 1e-6), self.DELAY_S, self.DT)
        assert integrator_loop_diverges(f * (1 + 1e-6), self.DELAY_S, self.DT)

    def test_onset_within_bisection_resolution(self):
        f_lo, f_hi, iters = 200.0, 1000.0, 14
        onset = find_divergence_onset(self.DELAY_S, f_lo, f_hi, iters, self.DT)
        assert abs(onset - self.F_CROSS) <= (f_hi - f_lo) / 2 ** (iters + 1)

    @pytest.mark.parametrize("unity_gain_hz, radius", [
        (300.0, 0.9794), (650.0, 0.9901), (700.0, 1.0052)])
    def test_servo_polynomial_decides_divergence(self, unity_gain_hz, radius):
        # The near-end loop at dt = 0.1 ms and m = 2, as the linear engine
        # runs it: its denominator's spectral radius says whether a run
        # diverges.
        c1 = ControllerConfig(unity_gain_hz=unity_gain_hz, integrator_corner_hz=30.0)
        cfg = make_link(c1=c1)
        _, a = _loop_filter_polys(c1, cfg.rf_shifter.bandwidth_hz, cfg.dt, cfg.m1)
        assert np.max(np.abs(np.roots(a))) == pytest.approx(radius, abs=5e-5)
        n = 20_000
        n1 = np.random.default_rng(1).standard_normal(n) * 1e-13
        z = np.zeros(n)
        if radius < 1:
            run_closed_loop(cfg, n1, z, z, z)
        else:
            with pytest.raises(DivergenceError):
                run_closed_loop(cfg, n1, z, z, z)


class TestLowFreqModel:
    def test_suppression_magnitude(self):
        # At 1 Hz the loop gain is ~ (300/1)*(30/1): suppression > 1e3.
        L = loop_gain(np.array([1.0]), CFG, 0.4e-3)
        assert abs(L[0]) > 5e3

    def test_slow_sine_suppressed(self):
        n = 4096
        x = PhaseSeries(1e-11 * np.sin(2 * np.pi * np.arange(n) / 1024), 1.0)
        out = loop_suppression(x, CFG, 0.4e-3)
        assert np.max(np.abs(out.samples)) < 1e-6 * np.max(np.abs(x.samples))

    @pytest.mark.parametrize("n", [1000, 1001])
    @pytest.mark.parametrize("b", [1, 30, 63, 499])
    def test_cosine_on_a_bin_oracle(self, n, b):
        # A cosine on FFT bin b comes out scaled by |S| and shifted by arg S,
        # S = 1/(1 + L(f)); 10 Hz to 4.99 kHz at the full-rate step.
        tau0, amp, phase = 1e-4, 2e-12, 0.3
        arg = 2 * np.pi * (b * np.arange(n) % n) / n + phase     # reduced exactly
        sens = 1.0 / (1.0 + loop_gain(np.array([b / (n * tau0)]), CFG, 0.4e-3)[0])
        out = loop_suppression(PhaseSeries(amp * np.cos(arg), tau0), CFG, 0.4e-3).samples
        want = amp * abs(sens) * np.cos(arg + np.angle(sens))
        assert np.max(np.abs(out - want)) <= 1e-12 * amp * abs(sens)

    def test_matches_fullrate_engine_over_overlap(self, tmp_path):
        # Dual-rate validation: the decimated suppression model and the
        # full-rate servo agree on closed-loop Allan over their overlap.
        scn = fl.load_scenario({
            "seed": 31415, "preset": "fig1",
            "run": {"fullrate_duration_s": 1000.0,
                    "decimated_duration_s": 86400.0},
            "outputs": {"fullrate_taus_s": [1, 2, 4, 8, 16],
                        "adev_taus_s": [1, 2, 4, 8, 16, 100, 1000, 10000]},
        })
        rep = fl.run(scn, out_dir=tmp_path)
        full = rep.results["fullrate"]["curves"]["closed_rt"]
        dec = rep.results["decimated"]["curves"]["closed_rt"]
        for tau in (1.0, 2.0, 4.0, 8.0, 16.0):
            assert dec.sigma_at(tau) == pytest.approx(full.sigma_at(tau), rel=0.5)
