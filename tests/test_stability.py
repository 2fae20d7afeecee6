import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.errors import InvalidInputError
from fiberlink.series import FracFreqSeries, PhaseSeries
from fiberlink.stability import (WelchAccumulator, allan_deviation,
                                 allan_deviation_phase, fit_power_law,
                                 one_way_from_round_trip, phase_to_frac_freq,
                                 psd_welch)


class TestPhaseToFracFreq:
    def test_linear_ramp(self):
        y = phase_to_frac_freq(PhaseSeries([0.0, 1e-9, 2e-9], 1.0))
        assert np.allclose(y.samples, [1e-9, 1e-9])
        assert len(y) == 2

    def test_constant_phase(self):
        y = phase_to_frac_freq(PhaseSeries([5e-8, 5e-8, 5e-8], 1.0))
        assert np.allclose(y.samples, [0.0, 0.0])

    def test_random_walk_gives_white_freq(self):
        # Random-walk phase with step variance v -> y white, variance v/tau0^2.
        rng = np.random.default_rng(3)
        v = (2.5e-12) ** 2
        tau0 = 0.5
        steps = rng.standard_normal(100_000) * np.sqrt(v)
        x = PhaseSeries(np.cumsum(steps), tau0)
        y = phase_to_frac_freq(x)
        assert np.var(y.samples) == pytest.approx(v / tau0 ** 2, rel=0.03)


class TestAllanDeviation:
    def test_constant_y_is_zero(self):
        y = FracFreqSeries(np.full(100, 3e-13), 1.0)
        curve = allan_deviation(y, [1, 2, 5])
        assert np.allclose(curve.sigmas, 0.0)

    def test_alternating_identity(self):
        a = 7e-13
        y = FracFreqSeries(a * (-1.0) ** np.arange(64), 1.0)
        for estimator in ("standard", "overlapping"):
            curve = allan_deviation(y, [1.0], estimator)
            assert curve.sigmas[0] == pytest.approx(a * np.sqrt(2.0), rel=1e-12)

    def test_white_fm_analytic_law(self):
        # sigma_y(tau) = sqrt(h0 / (2 tau)), Monte-Carlo ensemble oracle.
        rng = np.random.default_rng(11)
        h0 = 2e-28
        per_sample = np.sqrt(h0 / 2.0)
        taus = np.array([1.0, 10.0, 100.0])
        acc = np.zeros(3)
        n_runs = 120
        for _ in range(n_runs):
            y = FracFreqSeries(rng.standard_normal(8000) * per_sample, 1.0)
            acc += allan_deviation(y, taus).sigmas
        measured = acc / n_runs
        assert np.allclose(measured, np.sqrt(h0 / (2 * taus)), rtol=0.10)

    def test_non_multiple_tau_rejected(self):
        y = FracFreqSeries(np.zeros(10), 1.0)
        with pytest.raises(InvalidInputError):
            allan_deviation(y, [1.5])

    def test_insufficient_data_omitted_with_flag(self):
        y = FracFreqSeries(np.random.default_rng(0).standard_normal(10), 1.0)
        curve = allan_deviation(y, [1.0, 8.0])
        assert list(curve.taus) == [1.0]
        assert curve.omitted_taus == (8.0,)

    def test_estimators_match_at_tau0(self):
        y = FracFreqSeries(np.random.default_rng(1).standard_normal(500), 0.25)
        std = allan_deviation(y, [0.25], "standard")
        ovl = allan_deviation(y, [0.25], "overlapping")
        assert std.sigmas[0] == pytest.approx(ovl.sigmas[0], rel=1e-12)
        assert std.n_pairs[0] == ovl.n_pairs[0] == 499

    def test_overlapping_uses_all_spans(self):
        y = FracFreqSeries(np.random.default_rng(2).standard_normal(100), 1.0)
        std = allan_deviation(y, [10.0], "standard")
        ovl = allan_deviation(y, [10.0], "overlapping")
        assert std.n_pairs[0] == 9
        assert ovl.n_pairs[0] == 81

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_scale_equivariance(self, c, seed):
        y0 = np.random.default_rng(seed).standard_normal(64)
        base = allan_deviation(FracFreqSeries(y0, 1.0), [1, 4]).sigmas
        scaled = allan_deviation(FracFreqSeries(c * y0, 1.0), [1, 4]).sigmas
        assert np.allclose(scaled, c * base, rtol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(min_value=-10.0, max_value=10.0),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_offset_invariance(self, c, seed):
        y0 = np.random.default_rng(seed).standard_normal(64)
        base = allan_deviation(FracFreqSeries(y0, 1.0), [1, 4]).sigmas
        shifted = allan_deviation(FracFreqSeries(y0 + c, 1.0), [1, 4]).sigmas
        assert np.allclose(shifted, base, rtol=1e-9, atol=1e-15)


class TestPsdWelch:
    def test_single_tone_integrated_power(self):
        # beta^2/2 identity for a pure sinusoid landing on a bin.
        n, tau0, beta = 4096, 1e-3, 0.37
        fm = 50 / (n * tau0)                      # exactly 50 cycles
        t = np.arange(n) * tau0
        x = PhaseSeries(beta * np.sin(2 * np.pi * fm * t), tau0)
        psd = psd_welch(x, segment=n)
        df = psd.freqs[1] - psd.freqs[0]
        assert np.sum(psd.values) * df == pytest.approx(beta ** 2 / 2, rel=0.02)
        assert psd.freqs[np.argmax(psd.values)] == pytest.approx(fm, rel=1e-9)

    def test_zero_input(self):
        x = PhaseSeries(np.zeros(1024), 1.0)
        psd = psd_welch(x, segment=256)
        assert np.all(psd.values == 0.0)

    def test_white_phase_level(self):
        # Flat one-sided level 2 sigma^2 tau0.
        rng = np.random.default_rng(5)
        sigma, tau0 = 3e-13, 0.01
        x = PhaseSeries(rng.standard_normal(200_000) * sigma, tau0)
        psd = psd_welch(x, segment=4096)
        level = psd.band_mean(psd.freqs[3], psd.freqs[-1])
        assert level == pytest.approx(2 * sigma ** 2 * tau0, rel=0.15)

    def test_parseval_consistency(self):
        rng = np.random.default_rng(6)
        x = PhaseSeries(rng.standard_normal(65536), 0.5)
        psd = psd_welch(x, segment=8192)
        df = psd.freqs[1] - psd.freqs[0]
        detrended = x.samples - np.polyval(
            np.polyfit(np.arange(len(x)), x.samples, 1), np.arange(len(x)))
        assert np.sum(psd.values) * df == pytest.approx(np.var(detrended), rel=0.05)

    def test_segment_too_long_rejected(self):
        x = PhaseSeries(np.zeros(100), 1.0)
        with pytest.raises(InvalidInputError):
            psd_welch(x, segment=101)

    # scipy's welch is the oracle: the same estimate with scipy's window set-up
    # and lstsq detrend, averaged in another order, so equal to rounding.
    # Segment counts 1, 5, 13, 161 and 3324; odd and even segments.
    @pytest.mark.parametrize("n, segment, overlap", [
        (7000, 7000, 0.5),
        (9000, 3000, 0.5),
        (9500, 1001, 0.3),
        (81_000, 1000, 0.5),
        (200_000, 600, 0.9),
    ])
    def test_matches_scipy_welch(self, n, segment, overlap):
        from scipy import signal

        x = np.cumsum(np.random.default_rng(n).standard_normal(n)) * 1e-12
        freqs, values = signal.welch(x, fs=1e4, window="hann", nperseg=segment,
                                     noverlap=int(overlap * segment), detrend="linear")
        psd = psd_welch(PhaseSeries(x, 1e-4), segment, overlap)
        assert np.array_equal(psd.freqs, freqs)
        assert np.max(np.abs(psd.values / values - 1)) <= 1e-10
        acc = WelchAccumulator(n, 1e-4, segment, overlap)
        for chunk in np.array_split(x, 37):
            acc.add(chunk)
        assert np.array_equal(acc.result().values, psd.values)


class TestFitPowerLaw:
    def test_exact_points(self):
        taus = np.array([1.0, 10.0, 100.0, 1000.0])
        curve = fl.AdevCurve(taus, 1e-14 / taus, [9, 9, 9, 9], "standard")
        fit = fit_power_law(curve)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.level == pytest.approx(1e-14, rel=1e-9)

    def test_too_few_points(self):
        curve = fl.AdevCurve([1.0, 2.0], [1e-14, 5e-15], [9, 9], "standard")
        with pytest.raises(InvalidInputError):
            fit_power_law(curve)

    def test_white_fm_round_trip_slope(self):
        spec = fl.NoiseSpec(powerlaw=((0, 2e-28),))
        taus = [4, 8, 16, 32, 64, 128]
        acc = np.zeros(len(taus))
        for i in range(30):
            x = fl.gen_power_law_phase(spec, 16385, 1.0, 500 + i)
            acc += allan_deviation_phase(x, taus).sigmas
        curve = fl.AdevCurve(taus, acc / 30, np.full(len(taus), 9), "standard")
        assert fit_power_law(curve).exponent == pytest.approx(-0.5, abs=0.05)

    def test_random_walk_fm_slope(self):
        spec = fl.NoiseSpec(powerlaw=((-2, 1e-30),))
        taus = [4, 8, 16, 32, 64, 128]
        acc = np.zeros(len(taus))
        for i in range(30):
            x = fl.gen_power_law_phase(spec, 16385, 1.0, 900 + i)
            acc += allan_deviation_phase(x, taus).sigmas
        curve = fl.AdevCurve(taus, acc / 30, np.full(len(taus), 9), "standard")
        assert fit_power_law(curve).exponent == pytest.approx(+0.5, abs=0.05)


class TestOneWayFromRoundTrip:
    def test_halving_default(self):
        curve = fl.AdevCurve([1.0], [1.2e-14], [99], "standard")
        one_way = one_way_from_round_trip(curve)
        assert one_way.sigmas[0] == pytest.approx(6e-15)
        assert one_way.n_pairs[0] == 99
        assert "correlated" in one_way.notes[0]

    def test_independent_mode_sqrt2(self):
        # With independent per-pass residuals the deduction is /sqrt(2);
        # 1.2e-14 round trip gives the quoted ~8e-15 one-way.
        curve = fl.AdevCurve([1.0], [1.2e-14], [99], "standard")
        one_way = one_way_from_round_trip(curve, independent=True)
        assert one_way.sigmas[0] == pytest.approx(8.49e-15, rel=0.01)
        assert "independent" in one_way.notes[0]

    def test_zero_curve(self):
        curve = fl.AdevCurve([1.0], [0.0], [5], "standard")
        assert one_way_from_round_trip(curve).sigmas[0] == 0.0

    def test_empty_curve_rejected(self):
        empty = fl.AdevCurve([], [], [], "standard")
        with pytest.raises(InvalidInputError):
            one_way_from_round_trip(empty)

    def test_correlated_simulation_agreement(self, open_passes):
        # Fully correlated dual fiber at a resolved delay (1 step of 10 ms
        # each way): one-way Allan and halved round-trip Allan agree within
        # 5% for tau >= 1 s.
        dt = 1e-2
        spec = fl.NoiseSpec(powerlaw=((0, 2e-24),))
        noise = fl.gen_power_law_phase(spec, 60_000, dt, 77).samples
        res = open_passes(noise, noise, dt, 1)
        taus = [1.0, 2.0, 5.0, 10.0]
        ow_curve = allan_deviation_phase(PhaseSeries(res.one_way, dt), taus, "overlapping")
        rt_curve = allan_deviation_phase(PhaseSeries(res.round_trip, dt), taus, "overlapping")
        deduced = one_way_from_round_trip(rt_curve)
        assert np.allclose(deduced.sigmas, ow_curve.sigmas, rtol=0.05)
