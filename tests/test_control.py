import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink import control
from fiberlink.control import (ControllerConfig, LinkLoopConfig, _loop_filter_polys,
                               _unstable_poles, critical_frequency, loop_sensitivity,
                               loop_suppression, run_closed_loop)
from fiberlink.errors import DivergenceError, InvalidInputError
from fiberlink.link import ActuatorState, actuator_alpha
from fiberlink.series import PhaseSeries

ENGINES = ("lfilter", "stepped")
CFG = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0)
CFG_OPT = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=30.0,
                           crossover_hz=0.1)


# The fig1 servo: 0.1 ms step, m = 2 one-way delay steps, 50 kHz RF shifter.
DT, M, RF_BW = 1e-4, 2, 5e4


def open_loop(f, cfg=CFG):
    """The simulated near-end loop's open-loop gain L = 1/S - 1 at ``f``."""
    return 1.0 / loop_sensitivity([f], cfg, RF_BW, DT, M)[0] - 1.0


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

    def test_default_margin_from_loop_sensitivity(self, loop_margins):
        # The margins of the loop the servo simulates, from its discrete
        # sensitivity.  The continuous L(s) = (kp/s + ki/s^2) exp(-s tau),
        # with no sampling and no actuator lag, reads a unity-gain crossing
        # of 301.48 Hz, a phase margin of 40.90 deg, f_u/f_crit = 0.482 and
        # a gain margin of 6.09 dB.
        f_u, phase_margin, gain_margin = loop_margins(open_loop)
        assert f_u == pytest.approx(304.72, abs=0.005)
        assert phase_margin == pytest.approx(46.05, abs=0.005)
        assert f_u / critical_frequency(2 * M * DT) == pytest.approx(0.4876, abs=1e-4)
        assert gain_margin == pytest.approx(7.14, abs=0.005)

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
        res = run_closed_loop(make_link(dt=dt, m=2, topology="off"), n1, n2, z, z)

        # Open passes: fiber 1's record, delayed 2 steps (pre-history held at
        # its first value) by the pass through fiber 2, which adds its own.
        m = 2
        assert np.array_equal(res.one_way, n1)
        assert np.array_equal(res.round_trip,
                              np.concatenate((np.full(m, n1[0]), n1[:-m])) + n2)

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
    """fig1's near-end servo, decided from its own loop polynomial."""

    def test_converges_below_diverges_above(self):
        assert _unstable_poles(CFG, RF_BW, DT, M) == 0
        assert _unstable_poles(ControllerConfig(unity_gain_hz=700.0), RF_BW, DT, M) == 2

    def test_onset_matches_analytic_within_10pct(self, stability_edge):
        onset = stability_edge(RF_BW, DT, M)
        assert onset == pytest.approx(critical_frequency(2 * M * DT), rel=0.10)


class TestLoopPolynomialOracle:
    """Stability decided by counting the roots of the discrete loop
    polynomial, checked against closed forms and against np.roots."""

    # With no integrator corner and no actuator lag, the servo's denominator
    # less its factor 1 - z^-1 is 1 - z^-1 + g z^-2m, g = 2 pi f dt.  It has
    # a root on the unit circle, z = exp(j theta), when 2 sin(theta/2) = g
    # and (2m - 1/2) theta = pi/2: theta = pi / (4m - 1), so the loop turns
    # unstable at f = sin(pi / (2 (4m - 1))) / (pi dt).
    DT = 1e-5
    LAGLESS_BW = 1e8

    @pytest.mark.parametrize("m", [1, 2, 5, 20, 40])
    def test_counter_flips_at_the_crossing(self, m):
        assert actuator_alpha(self.LAGLESS_BW, self.DT) == 1.0
        f = np.sin(np.pi / (2 * (4 * m - 1))) / (np.pi * self.DT)
        if m == 20:
            assert f == pytest.approx(632.8697, abs=1e-4)
        for scale, poles in ((1 - 1e-6, 0), (1 + 1e-6, 2)):
            cfg = ControllerConfig(unity_gain_hz=f * scale, integrator_corner_hz=0.0)
            assert _unstable_poles(cfg, self.LAGLESS_BW, self.DT, m) == poles

    def test_onset_within_bisection_resolution(self, stability_edge):
        f = np.sin(np.pi / (2 * 79)) / (np.pi * self.DT)
        onset = stability_edge(self.LAGLESS_BW, self.DT, 20, corner_hz=0.0)
        assert abs(onset - f) <= 1e-6

    def test_counter_agrees_with_roots(self):
        # Seeded loops across delays, steps, gains, corners (0 among them)
        # and actuator lags, each with no root within 1e-4 of the circle.
        # When ki = 0, d and a share the factor 1 - z^-1: np.roots puts it
        # at 1 +/- 4e-16, so it is divided out of the reference, as the
        # counter divides it out.
        rng = np.random.default_rng(2026)
        compared = 0
        for _ in range(400):
            m = int(rng.integers(1, 60))
            corner = float(rng.choice([0.0, 10 ** rng.uniform(-3, 3)]))
            cfg = ControllerConfig(unity_gain_hz=10 ** rng.uniform(0, 3.5),
                                   integrator_corner_hz=corner)
            dt, bw = 10 ** rng.uniform(-6, -2), 10 ** rng.uniform(1, 6)
            _, a = _loop_filter_polys(cfg, bw, dt, m)
            if corner == 0.0:
                a = np.polydiv(a, [1.0, -1.0])[0]
            radii = np.abs(np.roots(a))
            if np.min(np.abs(radii - 1.0)) > 1e-4:
                compared += 1
                assert _unstable_poles(cfg, bw, dt, m) == np.count_nonzero(radii > 1.0)
        assert compared >= 250

    def test_counter_memory_does_not_grow_with_the_delay(self):
        # At the m = 46,200 that the caps admit, the whole circle at once
        # peaked at 62-65 MB (traced); arc by arc the peak is a few arcs'
        # arrays, whatever m is.
        tracemalloc.start()
        try:
            _unstable_poles(CFG, RF_BW, DT, 46_200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, peak

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
        assert (_unstable_poles(c1, cfg.rf_shifter.bandwidth_hz, cfg.dt, cfg.m1) > 0) \
            == (radius > 1)
        n = 20_000
        n1 = np.random.default_rng(1).standard_normal(n) * 1e-13
        z = np.zeros(n)
        if radius < 1:
            run_closed_loop(cfg, n1, z, z, z)
        else:
            with pytest.raises(DivergenceError):
                run_closed_loop(cfg, n1, z, z, z)


class TestLoopSensitivity:
    """``loop_sensitivity`` is the loop that ``run_closed_loop`` simulates."""

    @pytest.mark.parametrize("f", [1.0, 10.0, 100.0, 300.0, 1000.0])
    def test_engine_residual_is_s_times_input(self, f):
        # A cosine on fiber 1 reaches the near-end detector as
        # w1 = Re(W), W = (1 + z^-m) exp(j 2 pi f t); once the transient has
        # died the residual w1 + 2 z^-2m c1 is Re(S W).  The continuous
        # 1/(1 + L) misses by 6e-4 at 1 Hz and by over 0.1 at 300 Hz.
        cfg = make_link(dt=DT, m=M, topology="independent", rf_range=1e100,
                        pz_range=1e100, th_range=1e100)
        k = np.arange(40_000)
        n1 = np.cos(2 * np.pi * f * DT * k)
        z = np.zeros(k.size)
        c1 = run_closed_loop(cfg, n1, z, z, z).c1_applied
        residual = (n1[M:-M] + n1[2 * M:] + 2.0 * c1[:-2 * M])[-5000:]
        t = k[2 * M:][-5000:]
        W = (1.0 + np.exp(-2j * np.pi * f * DT * M)) * np.exp(2j * np.pi * f * DT * t)
        want = (loop_sensitivity([f], CFG, RF_BW, DT, M)[0] * W).real
        assert np.max(np.abs(residual - want)) <= 1e-8 * np.max(np.abs(want))

    def test_gain_margin_is_where_the_roots_cross(self, loop_margins):
        # L is linear in unity_gain_hz, so raising it by the gain margin
        # puts |L| = 1 at arg L = -180 deg: the spectral radius of the
        # servo's denominator crosses 1 there.
        edge = CFG.unity_gain_hz * 10 ** (loop_margins(open_loop)[2] / 20.0)
        assert edge == pytest.approx(682.61, abs=0.005)
        for scale, outside in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
            cfg = ControllerConfig(unity_gain_hz=edge * scale)
            _, a = _loop_filter_polys(cfg, RF_BW, DT, M)
            assert (np.max(np.abs(np.roots(a))) > 1.0) == outside
            assert (_unstable_poles(cfg, RF_BW, DT, M) > 0) == outside

    @pytest.mark.parametrize("f", [1e-3, 1e-2, 0.1])
    def test_low_frequency_limit_is_the_continuous_loop(self, f):
        # Far below the loop bandwidth the servo is the continuous loop.  Its
        # two backward-Euler integrators advance it by one step, so the
        # limit's delay is (2M - 1) dt; against tau = 2M dt the two differ by
        # 2 pi f dt (6.3e-7 at 1 mHz).  The expanded denominator, evaluated
        # with np.polyval, loses 5.3e-4 at 1 mHz to cancellation.
        kp, ki = CFG.gains()
        s = 2j * np.pi * f
        want = s ** 2 / (s ** 2 + (kp * s + ki) * np.exp(-s * (2 * M - 1) * DT))
        got = loop_sensitivity([f], CFG, RF_BW, DT, M)[0]
        assert abs(got / want - 1.0) <= 1e-5

    @pytest.mark.parametrize("corner_hz", [30.0, 0.0])
    def test_frequency_alone_is_its_spectrum_bin(self, corner_hz):
        # S at a frequency alone, or in any short run of frequencies, has the
        # bits of the same bin of a whole spectrum: it is made with no
        # complex product, whose rounding numpy varies with the array's length.
        cfg = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=corner_hz)
        freqs = np.fft.rfftfreq(2000, DT)[:1000]
        whole = loop_sensitivity(freqs, cfg, RF_BW, DT, M)
        alone = np.concatenate([loop_sensitivity([f], cfg, RF_BW, DT, M) for f in freqs])
        assert alone.tobytes() == whole.tobytes()
        for size in (2, 3, 9):
            runs = [loop_sensitivity(freqs[i:i + size], cfg, RF_BW, DT, M)
                    for i in range(0, freqs.size, size)]
            assert np.concatenate(runs).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("corner_hz", [30.0, 0.0])
    def test_dc_fully_suppressed(self, corner_hz):
        # With no integrator corner, d and a both vanish at DC (0/0); the
        # servo's own integration still holds S(0) at 0.
        cfg = ControllerConfig(unity_gain_hz=300.0, integrator_corner_hz=corner_hz)
        assert loop_sensitivity([0.0], cfg, RF_BW, DT, M)[0] == 0.0
        x = PhaseSeries(1e-11 + 1e-12 * np.sin(np.arange(4096) / 100.0), 1.0)
        out = loop_suppression(x, cfg, RF_BW, DT, M).samples
        assert np.all(np.isfinite(out))
        assert abs(np.mean(out)) <= 1e-15 * 1e-11


class TestLowFreqModel:
    def test_suppression_magnitude(self):
        # At 1 Hz the loop gain is ~ (300/1)*(30/1): suppression > 1e3.
        assert abs(open_loop(1.0)) > 5e3

    def test_slow_sine_suppressed(self):
        n = 4096
        x = PhaseSeries(1e-11 * np.sin(2 * np.pi * np.arange(n) / 1024), 1.0)
        out = loop_suppression(x, CFG, RF_BW, DT, M)
        assert np.max(np.abs(out.samples)) < 1e-6 * np.max(np.abs(x.samples))

    @pytest.mark.parametrize("n", [1000, 1001])
    @pytest.mark.parametrize("b", [1, 30, 63, 499])
    def test_cosine_on_a_bin_oracle(self, n, b):
        # A cosine on FFT bin b comes out scaled by |S| and shifted by arg S;
        # 10 Hz to 4.99 kHz at the full-rate step.
        tau0, amp, phase = DT, 2e-12, 0.3
        arg = 2 * np.pi * (b * np.arange(n) % n) / n + phase     # reduced exactly
        sens = loop_sensitivity([b / (n * tau0)], CFG, RF_BW, DT, M)[0]
        out = loop_suppression(PhaseSeries(amp * np.cos(arg), tau0), CFG, RF_BW, DT, M).samples
        want = amp * abs(sens) * np.cos(arg + np.angle(sens))
        assert np.max(np.abs(out - want)) <= 1e-12 * amp * abs(sens)

    @pytest.mark.parametrize("n, block", [(1000, 100), (1001, 100), (70_000, None),
                                          (70_001, None)])
    def test_blockwise_equals_whole_spectrum(self, n, block, monkeypatch):
        # 501 and 35,001 bins: neither a multiple of the block, and 501
        # leaves one bin over after five blocks of 100.  The reference is
        # the whole spectrum's product in the same real arithmetic.
        if block is not None:
            monkeypatch.setattr(control, "_SENSITIVITY_BLOCK", block)
        assert (n // 2 + 1) % control._SENSITIVITY_BLOCK != 0
        x = np.cumsum(np.random.default_rng(n).standard_normal(n)) * 1e-12
        spec = np.fft.rfft(x)
        sens = loop_sensitivity(np.fft.rfftfreq(n, 1.0), CFG, RF_BW, DT, M)
        product = np.empty_like(spec)
        product.real = spec.real * sens.real - spec.imag * sens.imag
        product.imag = spec.imag * sens.real + spec.real * sens.imag
        want = np.fft.irfft(product, n)
        got = loop_suppression(PhaseSeries(x, 1.0), CFG, RF_BW, DT, M).samples
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4050, 20_250])
    def test_out_over_the_input_gives_the_fresh_bytes(self, n):
        # The decimated model's form: the inverse transform writes over the
        # record, which the series sees through a view.
        x = np.cumsum(np.random.default_rng(n).standard_normal(n)) * 1e-12
        want = loop_suppression(PhaseSeries(x, 1.0), CFG, RF_BW, DT, M).samples
        buf = x.copy()
        got = loop_suppression(PhaseSeries(buf[:], 1.0), CFG, RF_BW, DT, M, out=buf)
        assert np.shares_memory(got.samples, buf)
        assert got.samples.tobytes() == want.tobytes()
        assert buf.flags.writeable and not got.samples.flags.writeable

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
