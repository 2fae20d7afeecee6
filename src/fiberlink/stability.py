"""Phase/frequency conversion, Allan deviation, PSD estimation and
power-law identification.

The two-sample (Allan) deviation of fractional frequency,

    sigma_y(tau) = sqrt( 0.5 * < (ybar_n - ybar_{n+1})^2 > ),

is the stability measure used throughout: ybar_n are tau-averages of y, and
tau * (ybar_{n+1} - ybar_n) is a second difference of phase x, so one kernel
on the phase record serves both estimators and both kinds of input.
Estimators are pure functions over immutable series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .series import AdevCurve, FracFreqSeries, PhaseSeries, PsdEstimate

ESTIMATORS = ("standard", "overlapping")

# Samples per block of the Allan kernel's pass: a block of each of its three
# reads and its write stays in cache between the four operations.
_ADEV_BLOCK = 2 ** 16
# Samples per block of the Welch detrend's line, made where it is used while
# the block stays in cache, so no segment-sized copy of the line is kept.
_LINE_BLOCK = 2 ** 13


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


def _tau_multiples(taus, tau0):
    """``(taus, m)``: the distinct multiples m of tau0 that the requested
    taus name, in increasing order, each with the smallest tau naming it."""
    # Deduplicated in Python: np.unique without return_index imports numpy.ma.
    taus = np.array(sorted(set(np.asarray(taus, dtype=float).ravel().tolist())))
    if taus.size == 0:
        raise InvalidInputError("no taus requested")
    m, first = np.unique([_tau_multiple(tau, tau0) for tau in taus], return_index=True)
    return taus[first], m


def _second_difference_squares(x, m, out):
    """Fill ``out`` with ``(x[i + 2m] - 2.0 * x[i + m] + x[i]) ** 2``, block
    by block, in the operation order of the whole-array expression."""
    for start in range(0, out.size, _ADEV_BLOCK):
        d = out[start:start + _ADEV_BLOCK]
        stop = start + d.size
        np.multiply(x[m + start:m + stop], 2.0, out=d)
        np.subtract(x[2 * m + start:2 * m + stop], d, out=d)
        np.add(d, x[start:stop], out=d)
        np.multiply(d, d, out=d)


def _adev(x, tau0, taus, estimator):
    """Allan deviation sqrt(0.5 * <d**2>) / tau of the phase samples ``x``
    at step ``tau0``, d the second differences of x at lag m (overlapping)
    or of ``x[::m]`` at lag 1 (standard).  Each tau fills one work buffer,
    in blocks of ``_ADEV_BLOCK`` samples that stay in cache, and takes one
    pairwise ``np.mean``, so each sigma is bit for bit the one from
    ``np.mean(dd * dd)`` with ``dd = x[2m:] - 2.0 * x[m:-m] + x[:-2m]``."""
    if estimator not in ESTIMATORS:
        raise InvalidInputError(f"estimator must be one of {ESTIMATORS}")
    taus, multiples = _tau_multiples(taus, tau0)
    work = np.empty(max(x.size - 2, 0))
    out_t, out_s, out_p, omitted = [], [], [], []
    for tau, m in zip(taus, multiples):
        xm, lag = (x, m) if estimator == "overlapping" else (x[::m], 1)
        k = xm.size - 2 * lag
        if k < 1:
            omitted.append(float(tau))
            continue
        _second_difference_squares(xm, lag, work[:k])
        out_t.append(float(m * tau0))
        out_s.append(float(np.sqrt(0.5 * np.mean(work[:k])) / (m * tau0)))
        out_p.append(k)
    return AdevCurve(np.array(out_t), np.array(out_s), np.array(out_p, dtype=int),
                     estimator=estimator, omitted_taus=tuple(omitted))


def allan_deviation(y: FracFreqSeries, taus, estimator="standard") -> AdevCurve:
    """Allan deviation of fractional-frequency data at the requested taus.

    Each tau must be an integer multiple m*tau0; taus naming the same m give
    one point.  The standard estimator differences adjacent contiguous
    m-sample means of y; the overlapping estimator uses every m-span (NIST
    SP 1065, Riley 2008).  Taus with fewer than one difference pair are
    omitted and flagged on the returned curve.  y is integrated into phase
    (x_0 = 0), so the call holds that phase and one work buffer.
    """
    x = np.empty(len(y) + 1)
    x[0] = 0.0
    np.cumsum(y.samples, out=x[1:])
    x *= y.tau0
    return _adev(x, y.tau0, taus, estimator)


def allan_deviation_phase(x: PhaseSeries, taus, estimator="standard") -> AdevCurve:
    """Allan deviation of a phase-time record, as ``allan_deviation`` of its
    frequency record, with the second differences taken on ``x.samples``
    itself: the call's one record-sized array is its work buffer."""
    return _adev(x.samples, x.tau0, taus, estimator)


def _welch_hop(segment, overlap):
    return segment - int(overlap * segment)


def welch_segments(n, segment, overlap=0.5):
    """Complete Welch segments of ``segment`` samples in an ``n``-sample
    record, each starting ``segment - int(overlap * segment)`` after the last."""
    return (n - segment) // _welch_hop(segment, overlap) + 1


class WelchAccumulator:
    """One-sided Welch PSD (Welch, IEEE Trans. Audio Electroacoust. 15, 70,
    1967) of an ``n``-sample record fed in consecutive chunks of any size.

    It holds one segment, half its window, one complex spectrum and one
    running sum: 3 segments of float64.  Each complete segment has its mean
    and least-squares line removed, is multiplied by the periodic Hann
    window, and adds its ``|rfft|^2`` to the sum in segment order, all in
    its own buffer once the samples the next segment shares are copied out,
    so every chunking gives the same bytes.  The window is symmetric,
    w[N - i] = w[i], so only w[0..N/2] is kept and the rest is applied as a
    reversed view of it.  The line's direction is not kept: it is remade in
    the spectrum's memory, ``_LINE_BLOCK`` samples at a time from one
    block-sized template, for the projection and again for the subtraction,
    with the bytes of the whole-array form.
    Trailing samples that do not fill a segment are ignored.  It agrees with
    ``scipy.signal.welch`` (Hann, linear detrend) to rounding, not bit for bit.
    """

    def __init__(self, n, tau0, segment, overlap=0.5):
        segment = int(segment)
        if segment < 2 or segment > n:
            raise InvalidInputError(f"segment length {segment} must be in [2, {n}]")
        if not 0.0 <= overlap < 1.0:
            raise InvalidInputError("overlap fraction must be in [0, 1)")
        self._fs = 1.0 / tau0
        self._hop = _welch_hop(segment, overlap)
        self._count = welch_segments(n, segment, overlap)
        # Periodic Hann, as scipy.signal.get_window("hann", segment) builds
        # it, up to w[N/2]: these angles are the bits of the first half of
        # np.linspace(-pi, pi, N + 1).
        half = np.cos(np.arange(segment // 2 + 1) * (2 * np.pi / segment) - np.pi)
        half *= 0.5
        half += 0.5
        self._half = half
        self._buffer = np.empty(segment)
        self._filled = 0
        self._done = 0
        self._sum = np.zeros(segment // 2 + 1)
        self._spectrum = np.empty(segment // 2 + 1, dtype=complex)
        # The line's t_i = i - (N - 1) / 2 for the first block; a later block
        # is this plus its start, which is exact, so every block has the
        # bits of np.arange(lo, hi) - (N - 1) / 2.
        self._line = np.arange(min(_LINE_BLOCK, segment), dtype=float) - (segment - 1) / 2.0
        # The dot products are ``np.add.reduce`` sums, not BLAS ones: a BLAS
        # sum's order, so its last bit, depends on the thread count and the
        # CPU kernel.  t / |t| is the line's direction, orthogonal to 1; t**2
        # and the window's squares are summed in the spectrum's memory.
        scratch = self._spectrum.view(float)
        squares = scratch[:segment]
        for t, _, _ in self._line_blocks(squares, 1.0):
            t *= t
        self._norm = np.sqrt(np.add.reduce(squares))
        mirror = half[1: segment - segment // 2]     # w[N - i] = w[i], i >= 1
        squares = np.multiply(half, half, out=scratch[: half.size])
        self._window_sums = (np.add.reduce(half) + np.add.reduce(mirror),
                             np.add.reduce(squares) + np.add.reduce(squares[1: mirror.size + 1]))

    def _windowed(self, x):
        """Multiply the ``segment``-sample ``x`` by the window, in place."""
        half = self._half
        x[: half.size] *= half
        x[half.size:] *= half[x.size - half.size: 0: -1]
        return x

    def add(self, samples):
        """Feed the record's next samples."""
        seg = self._buffer.size
        while samples.size and self._done < self._count:
            take = min(seg - self._filled, samples.size)
            self._buffer[self._filled: self._filled + take] = samples[:take]
            self._filled += take
            samples = samples[take:]
            if self._filled == seg:
                # The spectrum's memory is also the line projection's
                # scratch, and its imaginary part takes imag ** 2.
                x = self._buffer
                shared = x[self._hop:].copy()
                x -= x.mean()
                scratch = self._spectrum.view(float)[:seg]
                for u, lo, hi in self._line_blocks(scratch, self._norm):
                    u *= x[lo:hi]
                coef = np.add.reduce(scratch)
                for u, lo, hi in self._line_blocks(scratch, self._norm):
                    u *= coef
                    x[lo:hi] -= u
                self._windowed(x)
                spectrum = np.fft.rfft(x, out=self._spectrum)
                power = np.multiply(spectrum.real, spectrum.real, out=x[: spectrum.size])
                power += np.multiply(spectrum.imag, spectrum.imag, out=spectrum.imag)
                self._sum += power
                x[: shared.size] = shared
                self._done += 1
                self._filled = shared.size

    def result(self) -> PsdEstimate:
        if self._done < self._count:
            raise InvalidInputError(
                f"Welch PSD has {self._done} of its {self._count} segments")
        seg = self._buffer.size
        total, power = self._window_sums
        values = self._sum / (self._count * self._fs * power)
        values[1:-1 if seg % 2 == 0 else None] *= 2    # one-sided: fold negative bins
        return PsdEstimate(np.fft.rfftfreq(seg, 1 / self._fs), values,
                           rbw_hz=float(self._fs * power / total ** 2))

    def _line_blocks(self, out, norm):
        """Fill ``out`` with t / ``norm``, t_i = i - (len(out) - 1) / 2
        (exact), ``_LINE_BLOCK`` samples at a time, yielding each block with
        its bounds ``(block, lo, hi)`` once it is filled."""
        seg = out.size
        for lo in range(0, seg, _LINE_BLOCK):
            hi = min(lo + _LINE_BLOCK, seg)
            block = np.add(self._line[: hi - lo], lo, out=out[lo:hi])
            block /= norm
            yield block, lo, hi


def psd_welch(x: PhaseSeries, segment: int, overlap=0.5) -> PsdEstimate:
    """One-sided Welch PSD of a sampled record.

    ``segment`` is the per-segment length in samples; segments overlap by the
    given fraction.  Each segment is detrended (mean and linear trend) before
    Hann windowing so DC leakage does not swamp the low bins.  The estimate
    is Parseval-consistent: integrating it over frequency recovers the
    variance of the detrended input.  It is ``WelchAccumulator`` fed the
    whole record.
    """
    acc = WelchAccumulator(len(x), x.tau0, segment, overlap)
    acc.add(x.samples)
    return acc.result()


def log_band_average(psd: PsdEstimate, bands_per_decade):
    """``(freqs, values, widths)`` of ``psd`` averaged over log-frequency
    bands, a fixed number per decade, as in LPSD (Troebs and Heinzel,
    Measurement 39, 120, 2006) but from the one Welch grid.

    The DC bin is its own row.  A bin at f > 0 falls in band
    ``j = round(bands_per_decade * log10(f))``, whose edges are at
    ``10**((j -/+ 1/2) / bands_per_decade)``; the bins of one band make one
    row.  A row's frequency and value are the means over its bins, each sum
    correctly rounded by ``math.fsum``, so a one-bin row is its bin exactly
    and no row depends on summation order.  Its width is its bin count times
    ``psd.bin_hz``, so ``sum(values * widths)`` is the estimate's
    rectangle-rule integral ``sum(psd.values) * psd.bin_hz``.
    """
    f = psd.freqs
    if f.size and f[0] < 0:
        raise InvalidInputError("log-band averaging needs a one-sided PSD (freqs >= 0)")
    with np.errstate(divide="ignore"):
        band = np.rint(bands_per_decade * np.log10(f))    # -inf for the DC bin
    first = np.ones(f.size, dtype=bool)
    first[1:] = band[1:] != band[:-1]
    starts = np.flatnonzero(first).tolist()
    spans = list(zip(starts, starts[1:] + [f.size]))
    counts = np.array([b - a for a, b in spans], dtype=float)
    means = [np.array([math.fsum(memoryview(col[a:b])) for a, b in spans]) / counts
             for col in (f, psd.values)]
    return means[0], means[1], counts * psd.bin_hz


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
