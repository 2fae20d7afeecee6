import numpy as np
import pytest
from scipy.fft import next_fast_len

import fiberlink as fl
from fiberlink import noise
from fiberlink.errors import InvalidInputError
from fiberlink.noise import (BurstSpec, BurstTrain, NoiseSpec, WalkPhase, _fast_len,
                             _pulse_len, _pulse_piece, _shaped_frac_freq, _white_scale,
                             component_rng, fiber_pair, gen_bursts, gen_diurnal,
                             gen_power_law_phase)
from fiberlink.scenario import _MAX_DECIMATED_SAMPLES
from fiberlink.series import PhaseSeries
from fiberlink.stability import allan_deviation_phase, fit_power_law


class TestNoiseSpec:
    def test_unsupported_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(powerlaw=((3, 1e-30),))

    def test_duplicate_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(powerlaw=((0, 1e-30), (0, 2e-30)))

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(powerlaw=((0, -1e-30),))


class TestPowerLaw:
    def test_zero_levels_give_zeros(self):
        spec = NoiseSpec(powerlaw=((0, 0.0), (2, 0.0)))
        x = gen_power_law_phase(spec, 100, 1.0, 1)
        assert np.all(x.samples == 0.0)

    def test_deterministic(self):
        spec = NoiseSpec(powerlaw=((0, 1e-28), (-2, 1e-32)))
        a = gen_power_law_phase(spec, 1000, 0.5, 123)
        b = gen_power_law_phase(spec, 1000, 0.5, 123)
        assert np.array_equal(a.samples, b.samples)
        c = gen_power_law_phase(spec, 1000, 0.5, 124)
        assert not np.array_equal(a.samples, c.samples)

    def test_linearity_by_construction(self):
        # A composite spec is exactly the sum of its individually generated
        # parts: components draw from sub-streams keyed by alpha.
        seed = 42
        full = gen_power_law_phase(
            NoiseSpec(powerlaw=((0, 1e-28), (2, 1e-29))), 512, 1.0, seed)
        part_a = gen_power_law_phase(NoiseSpec(powerlaw=((0, 1e-28),)), 512, 1.0, seed)
        part_b = gen_power_law_phase(NoiseSpec(powerlaw=((2, 1e-29),)), 512, 1.0, seed)
        assert np.array_equal(full.samples, part_a.samples + part_b.samples)

    def test_white_fm_calibration(self):
        # h0 = 2e-28 puts sigma_y(1 s) at 1e-14; ensemble within 10%.
        spec = NoiseSpec(powerlaw=((0, 2e-28),))
        acc = 0.0
        n_runs = 100
        for i in range(n_runs):
            x = gen_power_law_phase(spec, 10_001, 1.0, 9000 + i)
            acc += allan_deviation_phase(x, [1.0]).sigmas[0]
        assert acc / n_runs == pytest.approx(1e-14, rel=0.10)

    def test_white_pm_slope(self):
        spec = NoiseSpec(powerlaw=((2, 1e-28),))
        taus = [4, 8, 16, 32, 64]
        acc = np.zeros(len(taus))
        for i in range(30):
            acc += allan_deviation_phase(
                gen_power_law_phase(spec, 8193, 1.0, 300 + i), taus).sigmas
        curve = fl.AdevCurve(taus, acc / 30, np.full(len(taus), 9), "standard")
        assert fit_power_law(curve).exponent == pytest.approx(-1.0, abs=0.05)

    def test_bad_args(self):
        spec = NoiseSpec(powerlaw=((0, 1e-28),))
        with pytest.raises(InvalidInputError):
            gen_power_law_phase(spec, 1, 1.0, 1)
        with pytest.raises(InvalidInputError):
            gen_power_law_phase(spec, 100, -1.0, 1)
        with pytest.raises(InvalidInputError):
            component_rng(-3)

    def test_walk_fm_analytic_allan(self):
        # Random-walk FM: sigma_y^2(tau) = (2 pi^2 / 3) h tau, within 10%
        # on a 100-realization ensemble.
        h = 1e-30
        taus = np.array([4.0, 16.0, 64.0])
        acc = np.zeros(taus.size)
        for i in range(100):
            x = gen_power_law_phase(NoiseSpec(powerlaw=((-2, h),)), 8193, 1.0, 100 + i)
            acc += fl.allan_deviation_phase(x, taus).sigmas
        assert np.allclose(acc / 100, np.sqrt(2 * np.pi ** 2 / 3 * h * taus),
                           rtol=0.10)

    def test_flicker_fm_analytic_allan(self):
        # Flicker FM: sigma_y(tau) = sqrt(2 ln2 h), flat in tau.
        h = 1e-30
        taus = [4.0, 16.0, 64.0]
        acc = np.zeros(3)
        for i in range(100):
            x = gen_power_law_phase(NoiseSpec(powerlaw=((-1, h),)), 8193, 1.0, 300 + i)
            acc += fl.allan_deviation_phase(x, taus).sigmas
        assert np.allclose(acc / 100, np.sqrt(2 * np.log(2) * h), rtol=0.10)

    @pytest.mark.parametrize("alpha", [-2, -1, 0, 1, 2])
    def test_psd_matches_spec_per_alpha(self, alpha):
        # Ensemble PSD of the generated y reproduces h * f**alpha.
        h = 1e-30
        vals = None
        for i in range(40):
            x = gen_power_law_phase(NoiseSpec(powerlaw=((alpha, h),)),
                                    4097, 1.0, 7000 + i)
            y = fl.phase_to_frac_freq(x)
            psd = fl.psd_welch(PhaseSeries(y.samples, 1.0), segment=1024)
            vals = psd.values if vals is None else vals + psd.values
        vals /= 40
        f = psd.freqs
        band = (f > 0.01) & (f < 0.2)
        ratio = np.mean(vals[band] / (h * f[band] ** alpha))
        assert ratio == pytest.approx(1.0, abs=0.10)


def _kasdin_walter(alpha, n):
    # h_0 = 1, h_k = h_{k-1} (k - 1 - alpha/2) / k, term by term.
    h = [1.0]
    for k in range(1, n):
        h.append(h[-1] * (k - 1 - alpha / 2) / k)
    return np.array(h)


def _expected_avar_at_half(alpha, m):
    """E[AVAR(m)] / law for a 2m-sample y record filtered from rest (tau0 = 1):
    its one overlapping pair is d = sum_j c_j w_j, so E[d^2 / 2] = q sum c_j^2 / 2."""
    cum = np.concatenate(([0.0], np.cumsum(_kasdin_walter(alpha, 2 * m))))
    j = np.arange(2 * m)

    def span(a, b):                 # sum of h_{k-j} over k in [a, b), k >= j
        return cum[np.maximum(b - j, 0)] - cum[np.maximum(a - j, 0)]

    c = (span(m, 2 * m) - span(0, m)) / m
    law = {-2: 2 * np.pi ** 2 / 3 * m, -1: 2 * np.log(2)}[alpha]
    return 0.5 * _white_scale(alpha, 1.0, 1.0) ** 2 * np.sum(c * c) / law


class TestFastLen:
    # scipy.fft.next_fast_len(n, real=True) is the oracle.
    def test_every_length_to_2_17(self):
        assert not [n for n in range(1, 2 ** 17 + 1)
                    if _fast_len(n) != next_fast_len(n, real=True)]

    def test_seeded_lengths_to_twice_the_decimated_cap(self):
        top = 2 * _MAX_DECIMATED_SAMPLES
        ns = [*np.random.default_rng(24).integers(2 ** 17, top, 400).tolist(), top]
        assert not [n for n in ns if _fast_len(n) != next_fast_len(n, real=True)]


class TestTimeDomainSynthesis:
    @pytest.mark.parametrize("alpha", [-2, -1])
    def test_allan_at_half_the_record(self, alpha):
        # Nothing wraps around the record, so at tau = T/2 the mean AVAR
        # meets its expectation: the law for walk FM (1 + 1/(2 m^2)), 0.92 of
        # it for flicker FM, whose filter starts from rest.  An FFT-shaped
        # (circular) record read 0.26 and 0.59.  The one pair's AVAR is
        # E x chi^2_1, so the mean of S seeds has sd E sqrt(2 / S).
        seeds, m, h = 800, 1000, 1e-30
        law = {-2: 2 * np.pi ** 2 / 3 * h * m, -1: 2 * np.log(2) * h}[alpha]
        ratios = [allan_deviation_phase(
            gen_power_law_phase(NoiseSpec(powerlaw=((alpha, h),)), 2 * m + 1, 1.0, 50_000 + i),
            [m], "overlapping").sigmas[0] ** 2 / law for i in range(seeds)]
        expected = _expected_avar_at_half(alpha, m)
        assert expected == pytest.approx(1.0 + 0.5 / m ** 2 if alpha == -2 else 0.9216,
                                         abs=1e-4)
        assert abs(np.mean(ratios) - expected) <= 4.0 * expected * np.sqrt(2.0 / seeds)

    @pytest.mark.parametrize("alpha", [-1, 1])
    def test_flicker_is_a_linear_convolution(self, alpha):
        # The FFT convolution equals the direct one: no sample wraps around.
        n = 999
        y = _shaped_frac_freq(alpha, 1e-30, n, 0.5, np.random.default_rng(4))
        w = np.random.default_rng(4).standard_normal(n) * _white_scale(alpha, 1e-30, 0.5)
        direct = np.convolve(_kasdin_walter(alpha, n), w)[:n]
        assert np.max(np.abs(y - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("alpha", [-1, 1])
    @pytest.mark.parametrize("n_y, blocks", [(16, 1), (32, 2), (41, 3), (100, 7), (112, 7)])
    def test_partitioned_flicker_is_the_convolution(self, alpha, n_y, blocks, monkeypatch):
        # Blocks of 16 samples: one, two, three and seven of them, the last
        # one partial at 41 and 100 samples.
        monkeypatch.setattr(noise, "_FLICKER_BLOCK", 16)
        assert -(-n_y // 16) == blocks
        y = _shaped_frac_freq(alpha, 1e-30, n_y, 0.5, np.random.default_rng(8))
        w = np.random.default_rng(8).standard_normal(n_y) * _white_scale(alpha, 1e-30, 0.5)
        direct = np.convolve(w, _kasdin_walter(alpha, n_y))[:n_y]
        assert np.max(np.abs(y - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("alpha", [-1, 1])
    @pytest.mark.parametrize("n_y", [1, 2, 5000, 2 ** 16])
    def test_one_block_is_the_single_transform(self, alpha, n_y):
        # A record of at most one block keeps the bytes of the one padded
        # transform of the whole record, the draw's spectrum first.
        assert n_y <= noise._FLICKER_BLOCK
        size = next_fast_len(2 * n_y - 1, real=True)
        buf = np.zeros(size)
        buf[:n_y] = np.random.default_rng(9).standard_normal(n_y) * _white_scale(alpha, 1e-30, 2.0)
        spec = np.fft.rfft(buf)
        k = np.arange(1.0, n_y)
        buf[0] = 1.0
        buf[1:n_y] = (k - 1.0 - alpha / 2.0) / k
        np.cumprod(buf[:n_y], out=buf[:n_y])
        spec *= np.fft.rfft(buf)
        want = np.fft.irfft(spec, size)[:n_y]
        got = _shaped_frac_freq(alpha, 1e-30, n_y, 2.0, np.random.default_rng(9))
        assert got.tobytes() == want.tobytes()

    def test_walk_in_chunks_gives_the_record(self):
        whole = gen_power_law_phase(NoiseSpec(powerlaw=((-2, 1e-30),)), 1000, 0.5, 7).samples
        walk = WalkPhase(1e-30, 0.5, 7)
        parts = [walk.samples(k) for k in (1, 1, 5, 300, 693)]
        assert np.array_equal(np.concatenate(parts), whole)
        walk = WalkPhase(1e-30, 0.5, 7)
        out = np.full(1000, np.nan)
        edges = [0, 1, 2, 7, 307, 1000]
        for a, b in zip(edges, edges[1:]):
            assert walk.samples(b - a, out=out[a:b]).base is out
        assert out.tobytes() == whole.tobytes()


class TestDiurnal:
    def test_samples_are_the_sine_of_the_sample_times(self):
        # The times count up without an index array; the bytes are those of
        # the np.arange expression, also when written into out=.
        start, stop, tau0 = 2 ** 26 - 5_000, 2 ** 26 + 3, 1e-4
        want = 4.3e-11 * np.sin(2.0 * np.pi * (np.arange(start, stop) * tau0) / 86400.0 + 0.3)
        assert noise.diurnal_samples(4.3e-11, 86400.0, 0.3, start, stop, tau0).tobytes() \
            == want.tobytes()
        out = np.full(stop - start, np.nan)
        got = noise.diurnal_samples(4.3e-11, 86400.0, 0.3, start, stop, tau0, out=out)
        assert got is out and out.tobytes() == want.tobytes()

    def test_zero_amplitude(self):
        x = gen_diurnal(0.0, 86400.0, 0.0, 100, 1.0)
        assert np.all(x.samples == 0.0)

    def test_quarter_period_peak(self):
        amp, period = 4.3e-11, 86400.0
        n = 86401
        x = gen_diurnal(amp, period, 0.0, n, 1.0)
        assert x.samples[int(period / 4)] == pytest.approx(amp, rel=1e-9)

    def test_round_trip_plateau_in_reported_window(self):
        # Default calibration: open-loop round trip shows a 3-5e-15 bump
        # around tau ~ 1e4..1e5 s; oracle sigma(tau) = 2 A sin^2(pi tau/T)/tau.
        amp_rt = 2 * 4.3e-11        # both fibers share the diurnal
        period = 86400.0
        x = gen_diurnal(amp_rt, period, 0.0, 172_801, 1.0)
        tau = 43200.0
        curve = allan_deviation_phase(x, [tau], estimator="overlapping")
        oracle = 2 * amp_rt * np.sin(np.pi * tau / period) ** 2 / tau
        assert curve.sigmas[0] == pytest.approx(oracle, rel=0.25)
        assert 3e-15 < curve.sigmas[0] < 5.5e-15


class TestBursts:
    def test_zero_rate(self):
        spec = BurstSpec(rate_per_s=0.0, amp_median_s=1e-11)
        x = gen_bursts(spec, 1000, 1.0, 3)
        assert np.all(x.samples == 0.0)

    def test_pulse_peak_identity(self):
        # The raised-cosine pulse peaks at its amplitude.
        pulse = _pulse_piece(10e-12, 10.0, 0.1, 0, _pulse_len(10.0, 0.1))
        assert np.max(np.abs(pulse)) == pytest.approx(10e-12, rel=1e-12)

    def test_poisson_count(self):
        # 1/hour over a day: 24 events +/- 15 (two sigma).
        spec = BurstSpec(rate_per_s=1 / 3600.0, amp_median_s=1e-11, duration_s=5.0)
        x = gen_bursts(spec, 86_400, 1.0, 91)
        # count pulse starts: rising edges from zero
        active = np.abs(x.samples) > 0
        starts = np.sum(active[1:] & ~active[:-1]) + int(active[0])
        assert 9 <= starts <= 39

    def test_deterministic(self):
        spec = BurstSpec(rate_per_s=1e-3, amp_median_s=1e-11)
        a = gen_bursts(spec, 10_000, 1.0, 5)
        b = gen_bursts(spec, 10_000, 1.0, 5)
        assert np.array_equal(a.samples, b.samples)

    def test_long_pulses_in_blocks(self):
        # Overlapping pulses of 10,001 samples, longer than a block of
        # noise._PULSE_BLOCK: the bytes of the whole-pulse expression, also
        # written piece by piece into out=.
        n, tau0, duration = 20_000, 1e-3, 10.0
        train = BurstTrain(BurstSpec(rate_per_s=0.5, amp_median_s=1e-11,
                                     duration_s=duration), n, tau0, 3)
        size = _pulse_len(duration, tau0)
        assert size > noise._PULSE_BLOCK
        want = np.zeros(n)
        for i0, amp in train._pulses:
            t = np.arange(min(size, n - i0)) * tau0
            want[i0:i0 + t.size] += amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / duration))
        assert np.count_nonzero(want) > n / 2 and len(train._pulses) > 2
        assert train.samples(0, n).tobytes() == want.tobytes()
        out = np.full(n, np.nan)
        edges = [0, 5_000, 12_345, n]
        for a, b in zip(edges, edges[1:]):
            assert train.samples(a, b, out=out[a:b]).base is out
        assert out.tobytes() == want.tobytes()

    def test_pieces_give_the_record(self):
        # Pulses overlap and straddle the piece edges; the last overhangs.
        spec = BurstSpec(rate_per_s=0.05, amp_median_s=1e-11, duration_s=30.0)
        whole = gen_bursts(spec, 1000, 0.5, 8).samples
        train = BurstTrain(spec, 1000, 0.5, 8)
        edges = [0, 1, 7, 64, 65, 400, 999, 1000]
        pieces = [train.samples(a, b) for a, b in zip(edges, edges[1:])]
        assert np.count_nonzero(whole) > 500
        assert np.array_equal(np.concatenate(pieces), whole)


class TestCorrelatedPair:
    spec = NoiseSpec(powerlaw=((2, 1.9e-28),))

    U = [np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([-4.0, 0.25])]

    @classmethod
    def _mix(cls, r, fibers=2):
        """``fiber_pair`` of the draws ``U`` into ``fibers`` new records,
        and the draws it took."""
        drawn = []
        out = tuple(np.full(2, np.nan) for _ in range(fibers))
        got = fiber_pair(r, lambda j: drawn.append(j) or cls.U[j].copy(), out=out)
        assert all(g is o for g, o in zip(got, out))
        return got, drawn

    def test_fiber_pair_into_out(self):
        # out holds c u_0 + d u_i, bit for bit, whether it has one record or two.
        u = self.U
        for r in (0.0, 0.3, 1.0):
            c, d = np.sqrt(1.0 - 0.5 * r * r), r / np.sqrt(2.0)
            for fibers in (1, 2):
                got, _ = self._mix(r, fibers)
                want = [c * u[0] + d * u[i] if r > 0 else u[0] for i in (1, 2)][:fibers]
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_fiber_pair_mix(self):
        # fiber_i = c u_0 + d u_i exactly; r = 0 never draws u_1 or u_2.
        u = self.U
        r = 0.3
        c, d = np.sqrt(1.0 - 0.5 * r * r), r / np.sqrt(2.0)
        (x1, x2), drawn = self._mix(r)
        assert drawn == [0, 1, 2]
        assert np.array_equal(x1, c * u[0] + d * u[1])
        assert np.array_equal(x2, c * u[0] + d * u[2])
        (x1, x2), drawn = self._mix(0.0)
        assert drawn == [0]
        assert np.array_equal(x1, u[0]) and np.array_equal(x2, u[0])

    def test_ratio_zero_identical(self, power_law_pair):
        f1, f2 = power_law_pair(self.spec, 0.0, 2000, 1.0, 7)
        assert np.array_equal(f1, f2)

    def test_fiber_pair_first_fiber_alone(self):
        # One record in out is the pair's first record, bit for bit, without u_2.
        for r in (0.0, 0.3, 1.0):
            (x1,), drawn = self._mix(r, fibers=1)
            assert drawn == ([0, 1] if r > 0 else [0])
            assert x1.tobytes() == self._mix(r)[0][0].tobytes()

    def test_ratio_sets_difference_allan(self, power_law_pair):
        # ratio 0.1: the fiber difference sits 10x below a single fiber.
        f1, f2 = power_law_pair(self.spec, 0.1, 200_000, 1.0, 99)
        a_single = allan_deviation_phase(PhaseSeries(f1, 1.0), [1.0]).sigmas[0]
        a_diff = allan_deviation_phase(PhaseSeries(f1 - f2, 1.0), [1.0]).sigmas[0]
        assert a_diff / a_single == pytest.approx(0.1, rel=0.30)

    def test_full_ratio_residual_correlation(self, power_law_pair):
        # r in [0, 1] cannot reach independence (that needs r = sqrt(2)), so
        # the contract is corr = 1 - r^2/2: 0.5 at r = 1.
        f1, f2 = power_law_pair(self.spec, 1.0, 100_000, 1.0, 13)
        cc = np.corrcoef(np.diff(f1), np.diff(f2))[0, 1]
        assert cc == pytest.approx(0.5, abs=0.05)

    def test_single_fiber_level_preserved(self, power_law_pair):
        ref = gen_power_law_phase(self.spec, 100_000, 1.0, 1)
        base = allan_deviation_phase(ref, [1.0]).sigmas[0]
        for ratio in (0.0, 0.5, 1.0):
            f1, _ = power_law_pair(self.spec, ratio, 100_000, 1.0, 21)
            level = allan_deviation_phase(PhaseSeries(f1, 1.0), [1.0]).sigmas[0]
            assert level == pytest.approx(base, rel=0.05)


def test_gen_noise_composite_determinism():
    # One fiber's record as the scenario sums it: power law, diurnal drift
    # and bursts, each drawn from the seed.
    def composite(seed):
        return (gen_power_law_phase(NoiseSpec(powerlaw=((0, 1e-28),)), 5000, 1.0, seed).samples
                + gen_diurnal(1e-11, 500.0, 0.0, 5000, 1.0).samples
                + gen_bursts(BurstSpec(rate_per_s=1e-2, amp_median_s=1e-12),
                             5000, 1.0, seed).samples)
    assert np.array_equal(composite(17), composite(17))
    assert not np.array_equal(composite(17), composite(18))
