"""Phase/frequency conversion, Allan deviation, PSD estimation and
power-law identification.

The two-sample (Allan) deviation of fractional frequency,

    sigma_y(tau) = sqrt( 0.5 * < (ybar_n - ybar_{n+1})^2 > ),

is the stability measure used throughout: ybar_n are contiguous tau-averages
of y.  The canonical input is frequency data; a phase-input wrapper chains
the conversion.  Estimators are pure functions over immutable series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.signal (~0.9 s and ~75 MB to import) is imported inside the functions
# that filter, so loading, validating and the comb chain never pay for it.

from .errors import InvalidInputError
from .series import AdevCurve, FracFreqSeries, PhaseSeries, PsdEstimate

ESTIMATORS = ("standard", "overlapping")


def phase_to_frac_freq(x: PhaseSeries) -> FracFreqSeries:
    """First-difference a phase-time record: y_n = (x_{n+1} - x_n) / tau0.

    Output has one sample fewer than the input.
    """
    if len(x) < 2:
        raise InvalidInputError("phase series needs at least 2 samples")
    y = np.diff(x.samples) / x.tau0
    return FracFreqSeries(y, x.tau0, label=x.label)


def _tau_multiple(tau, tau0):
    m = tau / tau0
    mi = int(round(m)) if np.isfinite(m) else 0
    if mi < 1 or abs(m - mi) > 1e-6 * max(abs(m), 1.0):
        raise InvalidInputError(
            f"tau={tau} is not an integer multiple of tau0={tau0}")
    return mi


def allan_deviation(y: FracFreqSeries, taus, estimator="standard") -> AdevCurve:
    """Allan deviation of fractional-frequency data at the requested taus.

    Each tau must be an integer multiple m*tau0.  The standard estimator
    averages y into contiguous m-sample means and differences adjacent means;
    the overlapping estimator uses every m-span.  Taus with fewer than one
    difference pair are omitted and flagged on the returned curve.
    """
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"estimator must be one of {ESTIMATORS}")
    yv = y.samples
    n = yv.size
    taus = np.unique(np.asarray(taus, dtype=float))
    if taus.size == 0:
        raise InvalidInputError("no taus requested")

    # Integrated phase (x_0 = 0) serves the overlapping estimator.
    xph = None
    if estimator == "overlapping":
        xph = np.concatenate(([0.0], np.cumsum(yv))) * y.tau0

    out_t, out_s, out_p, omitted = [], [], [], []
    for tau in taus:
        m = _tau_multiple(tau, y.tau0)
        if estimator == "standard":
            k = n // m
            if k < 2:
                omitted.append(float(tau))
                continue
            means = yv[: k * m].reshape(k, m).mean(axis=1)
            d = np.diff(means)
            out_s.append(float(np.sqrt(0.5 * np.mean(d * d))))
            out_p.append(d.size)
        else:
            if n - 2 * m + 1 < 1:
                omitted.append(float(tau))
                continue
            dd = xph[2 * m:] - 2.0 * xph[m:-m] + xph[:-2 * m]
            out_s.append(float(np.sqrt(0.5 * np.mean(dd * dd)) / (m * y.tau0)))
            out_p.append(dd.size)
        out_t.append(float(m * y.tau0))

    return AdevCurve(np.array(out_t), np.array(out_s), np.array(out_p, dtype=int),
                     estimator=estimator, omitted_taus=tuple(omitted))


def allan_deviation_phase(x: PhaseSeries, taus, estimator="standard") -> AdevCurve:
    """Convenience wrapper: Allan deviation straight from a phase-time record."""
    return allan_deviation(phase_to_frac_freq(x), taus, estimator)


def _pairwise_sum(count):
    """Coroutine: send it ``count`` arrays, and it returns their sum added
    in numpy's pairwise order, so the sum has the bytes of
    ``np.add.reduce`` over a contiguous axis of ``count`` terms.  It holds
    at most 8 partial sums plus one per halving of ``count`` beyond 128,
    and adds in place into the arrays sent to it."""
    if count > 128:
        half = count // 2
        half -= half % 8
        left = yield from _pairwise_sum(half)
        right = yield from _pairwise_sum(count - half)
        left += right
        return left
    if count < 8:
        total = 0.0 + (yield)
        for _ in range(count - 1):
            total += yield
        return total
    lanes = [None] * 8
    full = count - count % 8
    for i in range(full):
        if i < 8:
            lanes[i] = yield
        else:
            lanes[i % 8] += yield
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        lanes[a] += lanes[b]
        lanes[b] = None
    total = lanes[0]
    for _ in range(full, count):
        total += yield
    return total


class WelchAccumulator:
    """One-sided Welch PSD of an ``n``-sample record fed in consecutive
    chunks of any size, with the bytes of ``scipy.signal.welch`` of the
    whole record.

    It holds one segment of samples.  Each complete segment's periodogram
    is computed as ``scipy.signal.csd`` computes it and added into a
    pairwise sum, the order numpy's mean over the segments uses.  Trailing
    samples that do not fill a segment are ignored, as ``welch`` ignores
    them.
    """

    def __init__(self, n, tau0, segment, overlap=0.5, window="hann",
                 detrend="linear"):
        segment = int(segment)
        if segment < 2 or segment > n:
            raise InvalidInputError(f"segment length {segment} must be in [2, {n}]")
        if not 0.0 <= overlap < 1.0:
            raise InvalidInputError("overlap fraction must be in [0, 1)")
        from scipy import signal

        fs = 1.0 / tau0
        self._hop = segment - int(overlap * segment)
        self._count = (n - segment) // self._hop + 1
        win = signal.get_window(window, segment)
        self._sft = signal.ShortTimeFFT(win, self._hop, fs, fft_mode="onesided",
                                        mfft=segment, scale_to="psd", phase_shift=None)
        self._detrend = None if detrend is False else detrend
        self._rbw_hz = float(fs * np.sum(win ** 2) / np.sum(win) ** 2)
        self._buffer = np.empty(segment)
        self._filled = 0
        self._done = 0
        self._sum = _pairwise_sum(self._count)
        next(self._sum)
        self._total = None

    def add(self, samples):
        """Feed the record's next samples."""
        seg = self._buffer.size
        while samples.size and self._done < self._count:
            take = min(seg - self._filled, samples.size)
            self._buffer[self._filled: self._filled + take] = samples[:take]
            self._filled += take
            samples = samples[take:]
            if self._filled == seg:
                self._segment_done()
                self._buffer[: seg - self._hop] = self._buffer[self._hop:]
                self._filled = seg - self._hop

    def _segment_done(self):
        seg = self._buffer.size
        p = self._sft.spectrogram(self._buffer, detr=self._detrend, p0=0, p1=1,
                                  k_offset=seg // 2)[:, 0]
        p[1:-1 if seg % 2 == 0 else None] *= 2
        self._done += 1
        try:
            self._sum.send(p)
        except StopIteration as end:
            self._total = end.value

    def result(self) -> PsdEstimate:
        if self._total is None:
            raise InvalidInputError(
                f"Welch PSD has {self._done} of its {self._count} segments")
        values = self._total / self._count
        return PsdEstimate(self._sft.f, np.maximum(values, 0.0), rbw_hz=self._rbw_hz)


def psd_welch(x: PhaseSeries, segment: int, overlap=0.5, window="hann",
              detrend="linear") -> PsdEstimate:
    """One-sided Welch PSD of a sampled record.

    ``segment`` is the per-segment length in samples; segments overlap by the
    given fraction.  Each segment is detrended (mean and linear trend) before
    windowing so DC leakage does not swamp the low bins.  The estimate is
    Parseval-consistent: integrating it over frequency recovers the variance
    of the detrended input.  It is ``WelchAccumulator`` fed the whole record.
    """
    acc = WelchAccumulator(len(x), x.tau0, segment, overlap, window, detrend)
    acc.add(x.samples)
    return acc.result()


@dataclass(frozen=True)
class PowerLawFit:
    """Log-log fit sigma = level * tau**exponent over a tau range."""
    exponent: float
    level: float
    n_points: int


def fit_power_law(curve: AdevCurve, tau_min=None, tau_max=None) -> PowerLawFit:
    """Least-squares slope and level of log(sigma) vs log(tau).

    Needs at least three strictly positive sigma points inside the range.
    """
    mask = np.ones(len(curve), dtype=bool)
    if tau_min is not None:
        mask &= curve.taus >= tau_min
    if tau_max is not None:
        mask &= curve.taus <= tau_max
    taus = curve.taus[mask]
    sigmas = curve.sigmas[mask]
    if taus.size < 3:
        raise InvalidInputError(
            f"power-law fit needs >= 3 points in range, got {taus.size}")
    if np.any(sigmas <= 0):
        raise InvalidInputError("power-law fit requires strictly positive sigmas")
    slope, intercept = np.polyfit(np.log10(taus), np.log10(sigmas), 1)
    return PowerLawFit(exponent=float(slope), level=float(10.0 ** intercept),
                       n_points=int(taus.size))


def one_way_from_round_trip(curve: AdevCurve, independent=False) -> AdevCurve:
    """Deduce a one-way stability curve from a round-trip measurement.

    With fully correlated forward/backward perturbations the round-trip
    deviation is exactly twice the one-way (divide by 2, the default).  When
    the two passes carry independent residuals -- e.g. two independent
    compensation systems -- the proper reduction is sqrt(2).  The choice is
    recorded in the curve notes.
    """
    if len(curve) == 0:
        raise InvalidInputError("cannot deduce one-way from an empty curve")
    if independent:
        return curve.scaled(1.0 / np.sqrt(2.0),
                            "one-way deduced from round trip (/sqrt(2), independent residuals)")
    return curve.scaled(0.5, "one-way deduced from round trip (/2, correlated noise)")
