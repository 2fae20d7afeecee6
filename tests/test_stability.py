import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink import stability
from fiberlink.errors import InvalidInputError
from fiberlink.series import FracFreqSeries, PhaseSeries, PsdEstimate
from fiberlink.stability import (ESTIMATORS, WelchAccumulator, allan_deviation,
                                 allan_deviation_phase, fit_power_law,
                                 log_band_average, one_way_from_round_trip,
                                 phase_to_frac_freq, psd_welch)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fl.__file__)))


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

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_near_duplicate_taus_give_one_point(self, estimator):
        # Taus a hair apart name one multiple of tau0, so one point.
        x = PhaseSeries(np.cumsum(np.random.default_rng(3).standard_normal(50)), 1.0)
        taus = [1, 1.0000000001, 0.9999999999, 10, 30, 30.000000001]
        for curve in (allan_deviation_phase(x, taus, estimator),
                      allan_deviation(phase_to_frac_freq(x), taus, estimator)):
            assert list(curve.taus) == [1.0, 10.0]
            assert curve.omitted_taus == (30.0,)

    @pytest.mark.parametrize("n", [500, 997])
    def test_standard_matches_contiguous_means(self, n):
        # The kernel's lag-1 pass on x[::m] against adjacent contiguous
        # m-sample means of y, at m that do and do not divide the record.
        tau0 = 0.5
        x = PhaseSeries(np.cumsum(np.random.default_rng(n).standard_normal(n + 1)) * 1e-12,
                        tau0)
        y = phase_to_frac_freq(x)
        multiples = [1, 2, 3, 7, 10, 64, 100, n // 3, n // 2]
        sigmas, pairs = [], []
        for m in multiples:
            k = n // m
            d = np.diff(y.samples[: k * m].reshape(k, m).mean(axis=1))
            sigmas.append(np.sqrt(0.5 * np.mean(d * d)))
            pairs.append(d.size)
        taus = [m * tau0 for m in multiples]
        for curve in (allan_deviation(y, taus), allan_deviation_phase(x, taus)):
            assert np.array_equal(curve.n_pairs, pairs)
            assert np.max(np.abs(curve.sigmas / sigmas - 1)) <= 1e-12

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


def _ref_overlapping(x, tau0, taus):
    """``(sigmas, n_pairs)`` of the overlapping estimator on the phase
    samples ``x`` as one whole-array expression per tau."""
    sigmas, pairs = [], []
    for m in np.unique([int(round(tau / tau0)) for tau in taus]):
        if x.size - 2 * m < 1:
            continue
        dd = x[2 * m:] - 2.0 * x[m:-m] + x[:-2 * m]
        sigmas.append(float(np.sqrt(0.5 * np.mean(dd * dd)) / (m * tau0)))
        pairs.append(dd.size)
    return np.array(sigmas), np.array(pairs, dtype=int)


def _assert_overlapping_matches_reference(values, tau0, taus):
    """``values`` as frequency data, integrated from x_0 = 0, and (with two
    samples or more) as a phase record, each against the reference on its
    phase.  Returns the frequency data's curve."""
    y = FracFreqSeries(values, tau0)
    x = np.concatenate(([0.0], np.cumsum(y.samples))) * tau0
    checks = [(allan_deviation(y, taus, "overlapping"), x)]
    if y.samples.size >= 2:
        checks.append((allan_deviation_phase(PhaseSeries(values, tau0), taus, "overlapping"),
                       y.samples))
    for curve, phase in checks:
        sigmas, pairs = _ref_overlapping(phase, tau0, taus)
        assert np.array_equal(curve.sigmas, sigmas)
        assert np.array_equal(curve.n_pairs, pairs)
    return checks[0][0]


BLOCK = stability._ADEV_BLOCK
# The days-scale taus of a 10-day decimated run at a 1 s step.
DAY_SCALE_TAUS = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                  10000, 20000, 40000, 43200, 86400, 172800]


class TestOverlappingKernel:
    """The blocked overlapping pass gives the bytes of the whole-array
    expression on the phase record, for phase input and for frequency
    input: the same sigmas and pair counts, bit for bit."""

    # k = n - 2m + 1 terms of the frequency data (k - 1 of the same values
    # as phase): one, and either side of one and two blocks.
    @pytest.mark.parametrize("k", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("m", [1, 7])
    def test_term_counts_around_the_block(self, k, m):
        n = k + 2 * m - 1
        values = np.random.default_rng(k + m).standard_normal(n) * 1e-13
        curve = _assert_overlapping_matches_reference(values, 1.0, [m, 1, 2])
        assert curve.n_pairs[list(curve.taus).index(m)] == k

    def test_omitted_tau(self):
        values = np.random.default_rng(4).standard_normal(BLOCK + 9) * 1e-13
        too_long = float(BLOCK)
        curve = _assert_overlapping_matches_reference(values, 1.0, [1, 3, 1000, too_long])
        assert curve.omitted_taus == (too_long,)
        assert list(curve.taus) == [1.0, 3.0, 1000.0]

    @pytest.mark.parametrize("tau0", [1.0, 0.5, 1e-4])
    def test_sampling_intervals(self, tau0):
        values = np.random.default_rng(5).standard_normal(3 * BLOCK) * 1e-13
        _assert_overlapping_matches_reference(values, tau0,
                                              [m * tau0 for m in (1, 2, 5, 100, 3000)])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(min_value=-1e-6, max_value=1e-6),
                              st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308])),
                    min_size=1, max_size=300),
           st.lists(st.integers(min_value=1, max_value=160), min_size=1, max_size=6),
           st.sampled_from([1.0, 0.5, 1e-4]),
           st.integers(min_value=1, max_value=9))
    def test_property_matches_reference(self, values, multiples, tau0, block):
        # A small block puts several block edges inside these short records.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "_ADEV_BLOCK", block)
            _assert_overlapping_matches_reference(np.array(values), tau0,
                                                  [m * tau0 for m in multiples])

    def test_memory_two_record_buffers(self):
        # Peak traced memory over the input record, which exists beforehand:
        # the integrated phase and one work buffer, nothing per tau.
        n = 2 ** 19
        y = FracFreqSeries(np.random.default_rng(6).standard_normal(n) * 1e-13, 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            allan_deviation(y, DAY_SCALE_TAUS, "overlapping")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n, peak / (8 * n)

    def test_memory_phase_input_one_record_buffer(self):
        # Phase input is differenced where it lies: the work buffer is the
        # call's one record-sized array (three records when it went through
        # a frequency record and its integrated phase).
        n = 2 ** 19
        x = PhaseSeries(np.cumsum(np.random.default_rng(6).standard_normal(n)) * 1e-13, 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            allan_deviation_phase(x, DAY_SCALE_TAUS, "overlapping")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n, peak / (8 * n)


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

    # A 50,000-sample segment (fig1's 5 s at 0.1 ms) is long enough that a
    # BLAS dot product splits across threads; SkylakeX and Haswell are
    # OpenBLAS kernels with different sum orders.
    @pytest.mark.parametrize("setting", ["OPENBLAS_NUM_THREADS=2", "OPENBLAS_CORETYPE=Haswell",
                                         "OPENBLAS_CORETYPE=SkylakeX"])
    def test_bytes_independent_of_blas(self, setting):
        def digest(setting):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            env.update([setting.split("=")])
            code = ("import hashlib, numpy as np\n"
                    "from fiberlink.series import PhaseSeries\n"
                    "from fiberlink.stability import psd_welch\n"
                    "x = np.cumsum(np.random.default_rng(7).standard_normal(150_000)) * 1e-12\n"
                    "psd = psd_welch(PhaseSeries(x, 1e-4), segment=50_000)\n"
                    "print(hashlib.sha256(psd.values.tobytes()).hexdigest())")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert digest(setting) == digest("OPENBLAS_NUM_THREADS=1")

    @staticmethod
    def _whole_line_sum(x, segment, window, overlap=0.5):
        """The running sum of the accumulator's former form, which kept the
        line's direction t / |t| as one segment-sized array, with
        ``window`` as a whole array."""
        t = np.arange(segment) - (segment - 1) / 2.0
        unit_t = t / np.sqrt(np.add.reduce(t * t))
        hop = stability._welch_hop(segment, overlap)
        total = np.zeros(segment // 2 + 1)
        for i in range(stability.welch_segments(x.size, segment, overlap)):
            seg = x[i * hop: i * hop + segment].copy()
            seg -= seg.mean()
            seg -= np.add.reduce(unit_t * seg) * unit_t
            seg *= window
            spectrum = np.fft.rfft(seg)
            total += spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
        return total

    # Segment lengths that split the line's blocks unevenly: less than one
    # block, one block plus one sample, and many blocks plus a remainder.
    # The reference takes the accumulator's own window, mirrored from its
    # half: numpy's whole window differs from it in the last bit of some
    # samples of its second half, which moves the sum at 3, 16,385 and
    # 100,001.
    @pytest.mark.parametrize("segment", [2, 3, 16_385, 100_001])
    def test_line_blocks_give_the_whole_line_bytes(self, segment):
        assert segment % stability._LINE_BLOCK
        n = 2 * segment + segment // 2 + 1
        x = np.cumsum(np.random.default_rng(segment).standard_normal(n)) * 1e-12
        acc = WelchAccumulator(n, 1e-4, segment)
        window = acc._windowed(np.ones(segment))
        for start in range(0, n, 7919):
            acc.add(x[start:start + 7919])
        assert acc.result().values.size == segment // 2 + 1
        assert acc._sum.tobytes() == self._whole_line_sum(x, segment, window).tobytes()

    # Each block of the line is the template plus the block's start, with
    # the bits of np.arange(lo, hi) - (N - 1) / 2.
    @pytest.mark.parametrize("segment", [2, 3, 16_385, 100_001, 600_000])
    def test_line_template_gives_arange_bytes(self, segment):
        acc = WelchAccumulator(segment, 1e-4, segment)
        out = np.empty(segment)
        starts = [lo for _, lo, _ in acc._line_blocks(out, 3.0)]
        assert starts == list(range(0, segment, stability._LINE_BLOCK))
        line = (np.arange(segment, dtype=float) - (segment - 1) / 2.0) / 3.0
        assert out.tobytes() == line.tobytes()

    # The window the segments take is the periodic Hann window: exactly
    # symmetric, w[N - i] = w[i], its first half numpy's bits and its
    # second half within one rounding of them.
    @pytest.mark.parametrize("segment", [2, 3, 1001, 100_000, 600_000, 600_001])
    def test_applied_window_is_symmetric_hann(self, segment):
        acc = WelchAccumulator(segment, 1e-4, segment)
        window = acc._windowed(np.ones(segment))
        numpy_hann = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment + 1)[:-1])
        assert np.array_equal(window[1:], window[:0:-1])
        half = segment // 2 + 1
        assert window[:half].tobytes() == numpy_hann[:half].tobytes()
        assert np.max(np.abs(window - numpy_hann)) <= 1e-15
        total, power = acc._window_sums
        assert total == pytest.approx(np.sum(numpy_hann), rel=1e-15, abs=0)
        assert power == pytest.approx(np.sum(numpy_hann ** 2), rel=1e-15, abs=0)

    def test_memory_held_and_per_segment(self):
        # One 2.2 M-sample accumulation, fed in fig1's 65,536-sample chunks,
        # with three 600,000-sample segments.  The accumulator holds its
        # buffer, half its window, complex spectrum and running sum (3
        # segments; 3.5 with the whole window); the line's direction is
        # remade block by block in the spectrum's memory.  Adding a segment
        # sets aside only the samples the next segment shares (half a
        # segment at 50% overlap).  Detrending and windowing into new
        # records took three segments more.
        n, segment = 2_200_000, 600_000
        x = np.random.default_rng(10).standard_normal(n)
        tracemalloc.start()
        try:
            acc = WelchAccumulator(n, 1e-4, segment)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for start in range(0, n, 65_536):
                acc.add(x[start:start + 65_536])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seg_bytes = 8 * segment
        assert held <= 3.1 * seg_bytes, held / seg_bytes
        assert peak - held <= 1.5 * seg_bytes, (peak - held) / seg_bytes
        assert acc.result().values.size == segment // 2 + 1


BANDS = 10
ESTIMATES = {
    "welch": lambda: psd_welch(PhaseSeries(np.cumsum(
        np.random.default_rng(8).standard_normal(40_000)) * 1e-12, 1e-4), segment=8000),
    "grid": lambda: PsdEstimate(np.arange(8193) * 0.1,
                                np.random.default_rng(9).random(8193) * 1e-20, rbw_hz=0.1),
}


class TestLogBandAverage:
    @pytest.fixture(params=ESTIMATES.values(), ids=ESTIMATES.keys())
    def psd(self, request):
        return request.param()

    @staticmethod
    def _spans(psd, widths):
        """(start, stop) bin indices of each row, from its width."""
        counts = np.rint(widths / psd.bin_hz).astype(int)
        assert np.array_equal(counts * psd.bin_hz, widths) and counts.min() >= 1
        stops = np.cumsum(counts)
        return list(zip(stops - counts, stops))

    def test_every_bin_in_exactly_one_row_and_rows_increase(self, psd):
        freqs, values, widths = log_band_average(psd, BANDS)
        spans = self._spans(psd, widths)
        assert spans[-1][1] == psd.freqs.size
        with np.errstate(divide="ignore"):
            band = np.rint(BANDS * np.log10(psd.freqs))
        row_bands = []
        for (a, b), f in zip(spans, freqs):
            assert np.unique(band[a:b]).size == 1
            assert psd.freqs[a] <= f <= psd.freqs[b - 1]
            row_bands.append(band[a])
        assert np.all(np.diff(row_bands) > 0)
        assert np.all(np.diff(freqs) > 0)

    def test_dc_and_single_bin_rows_are_their_bins(self, psd):
        freqs, values, widths = log_band_average(psd, BANDS)
        assert (freqs[0], values[0], widths[0]) == (0.0, psd.values[0], psd.bin_hz)
        singles = [a for a, b in self._spans(psd, widths) if b - a == 1]
        rows = np.flatnonzero(widths == psd.bin_hz)
        assert len(singles) == rows.size > 5
        assert freqs[rows].tobytes() == psd.freqs[singles].tobytes()
        assert values[rows].tobytes() == psd.values[singles].tobytes()

    def test_integral_preserved(self, psd):
        _, values, widths = log_band_average(psd, BANDS)
        raw = np.sum(psd.values) * psd.bin_hz
        assert abs(np.sum(values * widths) / raw - 1) <= 1e-12

    def test_row_count_set_by_decades_not_bins(self, psd):
        # round(b) - round(a) + 1 <= b - a + 2 bands span [f_1, f_max], plus DC.
        freqs, _, _ = log_band_average(psd, BANDS)
        decades = np.log10(psd.freqs[-1] / psd.freqs[1])
        assert freqs.size <= BANDS * decades + 3 < psd.freqs.size / 10

    def test_empty_and_negative_grids(self):
        assert all(a.size == 0 for a in log_band_average(PsdEstimate([], [], 1.0), BANDS))
        with pytest.raises(InvalidInputError):
            log_band_average(PsdEstimate([-1.0, 1.0], [1.0, 1.0], 1.0), BANDS)


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
