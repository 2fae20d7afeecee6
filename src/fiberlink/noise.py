"""Calibrated perturbation synthesis: power-law noise, diurnal drift,
noise bursts, and the correlated dual-fiber pair.

All noise is expressed as delay fluctuation in seconds (phase-time); it is
carrier independent, and conversion to radians happens at the detection
carrier (see ``fiberlink.link.to_radians``).  Power-law levels parameterize
the one-sided fractional-frequency PSD

    S_y(f) = sum_alpha  h_alpha * f**alpha,      alpha in {-2,-1,0,1,2}

(random-walk FM, flicker FM, white FM, flicker PM, white PM).  Each
component is synthesized in the time domain (Kasdin and Walter, Proc. FCS
1992; Kasdin, Proc. IEEE 83, 802, 1995): white Gaussian noise started from
rest goes through the filter (1 - z^-1)^(alpha/2), whose one-sided PSD tends
to h_alpha * f**alpha at low frequency, and is then integrated to
phase-time.  Walk FM is a cumulative sum, white FM the draw itself, white PM
one difference of it; only flicker takes a linear FFT convolution,
partitioned into blocks of ``_FLICKER_BLOCK`` samples.  Nothing wraps around
the record's ends, so Allan variance keeps its law out to half the record
(walk FM exactly; flicker FM, filtered from rest, at 0.92 of it at
tau = T/2), and walk FM can be drawn chunk by chunk.  Everything is
deterministic for a given 64-bit seed; components draw from sub-streams
keyed by (seed, component tag), so a spec of several power-law terms is
exactly the sum of its terms generated one at a time.
Diurnal drift and bursts have their own generators, and ``fiber_pair``
mixes any per-fiber draw into two correlated fiber records in place; the
scenario's one table of parts sums them for each fiber.  The chunked
sources (``WalkPhase.samples``, ``diurnal_samples``, ``BurstTrain.samples``)
take ``out=`` to write into records the caller reuses, with the bytes they
return otherwise.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .series import PhaseSeries

SUPPORTED_ALPHAS = (-2, -1, 0, 1, 2)
# Samples per block of the flicker convolution (blocks^2 / 2 spectrum products).
_FLICKER_BLOCK = 2 ** 16
# Samples of a burst pulse evaluated at a time.
_PULSE_BLOCK = 2 ** 12

# Allan variance of pure white FM: sigma_y^2(tau) = h0 / (2 tau).
def white_fm_level_for(sigma_at_1s):
    """h0 giving sigma_y(1 s) = sigma_at_1s for white FM."""
    return 2.0 * sigma_at_1s ** 2


def check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidInputError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2 ** 64:
        raise InvalidInputError("seed must fit in 64 bits")
    return int(seed)


def component_rng(seed, *tags):
    """Deterministic generator for one noise component of a master seed."""
    key = [check_seed(seed)]
    key.extend(zlib.crc32(str(t).encode("utf-8")) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class BurstSpec:
    """Poisson-arriving transient delay excursions (raised-cosine pulses).

    Pulse amplitudes are log-normal with the given median and log-sigma.
    """
    rate_per_s: float
    amp_median_s: float
    amp_sigma: float = 0.5
    duration_s: float = 30.0

    def __post_init__(self):
        if self.rate_per_s < 0:
            raise InvalidInputError("burst rate must be non-negative")
        if self.amp_median_s < 0 or self.amp_sigma < 0:
            raise InvalidInputError("burst amplitude parameters must be non-negative")
        if not self.duration_s > 0:
            raise InvalidInputError("burst duration must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Power-law recipe for one noise record: ((alpha, h_alpha), ...)."""
    powerlaw: tuple = ()

    def __post_init__(self):
        seen = set()
        terms = []
        for alpha, level in self.powerlaw:
            alpha = int(alpha)
            if alpha not in SUPPORTED_ALPHAS:
                raise InvalidInputError(
                    f"unsupported power-law exponent alpha={alpha}; "
                    f"supported: {SUPPORTED_ALPHAS}")
            if level < 0 or not np.isfinite(level):
                raise InvalidInputError(f"power-law level must be finite and >= 0, got {level}")
            if alpha in seen:
                raise InvalidInputError(f"duplicate power-law exponent alpha={alpha}")
            seen.add(alpha)
            terms.append((alpha, float(level)))
        object.__setattr__(self, "powerlaw", tuple(terms))


def _white_scale(alpha, level, tau0):
    """Standard deviation of the white draw that the filter (1 - z^-1)^(alpha/2)
    turns into one-sided S_y(f) -> level * f**alpha as f -> 0.

    The filtered draw has S_y(f) = 2 tau0 q |2 sin(pi f tau0)|**alpha for
    draw variance q; matching it at low frequency puts Allan variance on
    (2 pi^2 / 3) h tau for walk FM, h / (2 tau) for white FM, 2 ln2 h for
    flicker FM and 3 h f_h / (4 pi^2 tau^2), f_h at Nyquist, for white PM.
    """
    return np.sqrt(level / (2.0 * tau0) * (2.0 * np.pi * tau0) ** -alpha)


def _fast_len(n):
    """The smallest 5-smooth length 2^i 3^j 5^k >= n >= 1, where real FFTs
    are fast: ``scipy.fft.next_fast_len(n, real=True)``, without importing
    scipy.fft (27 MB)."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five                  # 3^j 5^k, times the least power of 2 reaching n
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _shaped_frac_freq(alpha, level, n_y, tau0, rng):
    """One power-law component of y with one-sided S_y(f) -> level * f**alpha.

    The first ``n_y`` samples of the white draw filtered from rest by the
    Kasdin-Walter coefficients h_0 = 1, h_k = h_{k-1} (k - 1 - alpha/2) / k.
    """
    if level == 0.0:
        return np.zeros(n_y)
    scale = _white_scale(alpha, level, tau0)
    if alpha not in (-1, 1):
        w = rng.standard_normal(n_y)
        w *= scale
        if alpha == 0:              # h = 1
            return w
        if alpha == -2:             # h = 1, 1, 1, ...
            return np.cumsum(w, out=w)
        return np.diff(w, prepend=0.0)      # alpha = 2: h = 1, -1
    # Flicker is a uniformly partitioned linear convolution: draw and h are
    # cut into blocks of ``block`` samples, each transformed zero-padded to a
    # fast length that nothing wraps into, and output block s, the inverse of
    # sum_{j <= s} W_{s-j} H_j, is overlap-added.  The draw's spectrum comes
    # first in each product, so a one-block record is the single transform.
    block = min(_FLICKER_BLOCK, n_y)
    size = _fast_len(2 * block - 1)
    buf = np.empty(size)
    draws, coefs = [], []           # W_j and H_j
    y = np.zeros(n_y)
    for lo in range(0, n_y, block):
        b = min(block, n_y - lo)
        part = buf[:b]
        buf[b:] = 0.0
        rng.standard_normal(out=part)
        part *= scale
        draws.append(np.fft.rfft(buf))
        # h continues the one cumprod: the block's first ratio takes the
        # previous block's last h, as the running product would.
        k = np.arange(max(lo, 1), lo + b, dtype=float)
        part[b - k.size:] = (k - 1.0 - alpha / 2.0) / k
        part[0] = 1.0 if lo == 0 else part[0] * carry
        np.cumprod(part, out=part)
        carry = part[-1]
        coefs.append(np.fft.rfft(buf))
        acc = draws[-1] * coefs[0]
        for j in range(1, len(draws)):
            acc += draws[-1 - j] * coefs[j]
        np.fft.irfft(acc, size, out=buf)
        stop = min(lo + 2 * block - 1, n_y)
        y[lo:stop] += buf[:stop - lo]
    return y


def gen_power_law_phase(spec: NoiseSpec, n: int, tau0: float, seed) -> PhaseSeries:
    """Phase-time realization of the spec's power-law terms.

    Fractional frequency is synthesized per component and integrated, so
    ``phase_to_frac_freq`` of the result recovers the shaped y exactly.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2 samples")
    if not tau0 > 0:
        raise InvalidInputError("tau0 must be positive")
    total = np.zeros(n)
    for alpha, level in spec.powerlaw:
        rng = component_rng(seed, "powerlaw", alpha)
        y = _shaped_frac_freq(alpha, level, n - 1, tau0, rng)
        total[1:] += np.multiply(np.cumsum(y, out=y), tau0, out=y)
    return PhaseSeries(total, tau0, label="powerlaw")


class WalkPhase:
    """The random-walk FM record of ``gen_power_law_phase`` for the spec
    ((-2, level),) and ``seed``, drawn chunk by chunk: consecutive
    ``samples(k)`` calls give the bytes of one record of their total length.

    Both cumulative sums (draws to y, y to phase) carry their last value
    into the next chunk by adding it to the chunk's first term, so each sum
    runs the same additions in the same order as one pass.
    """

    def __init__(self, level, tau0, seed):
        self._scale = _white_scale(-2, level, tau0)
        self._tau0 = tau0
        self._rng = component_rng(seed, "powerlaw", -2)
        self._sums = [0.0, 0.0]     # last y and last phase / tau0
        self._first = 1             # phase sample 0 is 0 and takes no draw

    def samples(self, k, out=None):
        """The record's next ``k`` samples, written into ``out`` if given."""
        w = np.empty(k) if out is None else out
        w[:self._first] = 0.0
        self._rng.standard_normal(out=w[self._first:])
        self._first = 0
        w *= self._scale
        for i, carry in enumerate(self._sums):
            w[0] += carry
            np.cumsum(w, out=w)
            self._sums[i] = w[-1]
        w *= self._tau0
        return w


def _times(start, stop, tau0, out=None):
    """``np.arange(start, stop) * tau0``, written into ``out`` if given.

    The sample indices are counted up by a cumulative sum of ones, exact
    for any index below 2**53, so no index array is allocated.
    """
    t = np.empty(stop - start) if out is None else out
    if t.size:
        t[0] = start
        t[1:] = 1.0
        np.cumsum(t, out=t)
    t *= tau0
    return t


def diurnal_samples(amplitude_s, period_s, phase_rad, start, stop, tau0, out=None):
    """Samples ``start`` to ``stop - 1`` of x(t) = A sin(2 pi t / T + phase),
    written into ``out`` if given."""
    x = _times(start, stop, tau0, out)
    x *= 2.0 * np.pi
    x /= period_s
    x += phase_rad
    np.sin(x, out=x)
    x *= amplitude_s
    return x


def gen_diurnal(amplitude_s, period_s, phase_rad, n, tau0) -> PhaseSeries:
    """Deterministic sinusoidal delay drift x(t) = A sin(2 pi t / T + phase)."""
    if not period_s > 0:
        raise InvalidInputError("period must be positive")
    return PhaseSeries(diurnal_samples(amplitude_s, period_s, phase_rad, 0, n, tau0),
                       tau0, label="diurnal")


def _pulse_piece(amplitude_s, duration_s, tau0, lo, hi, out=None):
    """Samples lo to hi - 1 of the raised-cosine pulse, written into ``out``
    if given."""
    x = _times(lo, hi, tau0, out)
    x *= 2.0 * np.pi
    x /= duration_s
    np.cos(x, out=x)
    np.subtract(1.0, x, out=x)
    x *= amplitude_s * 0.5
    return x


def _pulse_len(duration_s, tau0):
    return max(int(round(duration_s / tau0)), 2) + 1


class BurstTrain:
    """The pulses of one ``gen_bursts`` record, drawn once and evaluated over
    any range of its samples, so a record can be built chunk by chunk."""

    def __init__(self, spec: BurstSpec, n, tau0, seed):
        duration = n * tau0
        expected = spec.rate_per_s * duration
        if not np.isfinite(expected):
            raise InvalidInputError("burst rate times duration must be finite")
        self._n, self._tau0, self._duration_s = n, tau0, spec.duration_s
        self._pulses = []           # (first sample, amplitude), in arrival order
        if expected > 0:
            rng = component_rng(seed, "bursts")
            count = rng.poisson(expected)
            starts = np.sort(rng.uniform(0.0, duration, size=count))
            # math.exp: numpy's SIMD exp rounds differently at each host level.
            amps = [spec.amp_median_s * math.exp(spec.amp_sigma * z)
                    for z in rng.standard_normal(count).tolist()]
            self._pulses = [(int(round(t0 / tau0)), amp) for t0, amp in zip(starts, amps)]

    def samples(self, start, stop, out=None):
        """Samples ``start`` to ``stop - 1`` of the record, written into
        ``out`` if given.  A pulse is evaluated ``_PULSE_BLOCK`` samples at
        a time, so no temporary grows with the range."""
        x = np.empty(stop - start) if out is None else out
        x.fill(0.0)
        size = _pulse_len(self._duration_s, self._tau0)
        scratch = np.empty(min(_PULSE_BLOCK, x.size))
        for i0, amp in self._pulses:
            for lo in range(max(i0, start), min(i0 + size, stop, self._n), _PULSE_BLOCK):
                hi = min(lo + _PULSE_BLOCK, i0 + size, stop, self._n)
                x[lo - start: hi - start] += _pulse_piece(
                    amp, self._duration_s, self._tau0, lo - i0, hi - i0, scratch[:hi - lo])
        return x


def gen_bursts(spec: BurstSpec, n, tau0, seed) -> PhaseSeries:
    """Poisson-arriving raised-cosine delay excursions.

    Arrival count is Poisson(rate * n * tau0); arrivals are uniform over the
    record and pulses overhanging the end are truncated.
    """
    return PhaseSeries(BurstTrain(spec, n, tau0, seed).samples(0, n), tau0, label="bursts")


def fiber_pair(ratio, draw, out):
    """Two fiber records sharing a common mode, written from unit
    realizations into ``out``.

    ``draw(j)`` returns realization j: 0 is the common mode, 1 and 2 the
    fibers' own parts.  They are combined as

        fiber_i = sqrt(1 - r^2/2) * u_0  +  (r / sqrt(2)) * u_i

    which preserves the single-fiber level and makes RMS(fiber1 - fiber2) /
    RMS(fiber1) equal the ratio r -- so the Allan deviation of the fiber
    difference is r times the single-fiber Allan deviation.  r = 0 yields
    identical records without drawing u_1 or u_2.  Full independence would
    require r = sqrt(2), outside the accepted [0, 1] range, so the residual
    inter-fiber correlation at r = 1 is 0.5.

    ``out`` holds one record per fiber, of the draws' length: one record
    is fiber 1 alone, and u_2 is never drawn.  Each draw is scaled where it
    lies, so nothing is allocated: ``draw`` must return a record its caller
    no longer needs.
    """
    c = np.sqrt(1.0 - 0.5 * ratio * ratio)
    np.multiply(draw(0), c, out=out[0])
    for x in out[1:]:
        np.copyto(x, out[0])
    if ratio > 0.0:
        d = ratio / np.sqrt(2.0)
        for j, x in enumerate(out, 1):
            u = draw(j)
            x += np.multiply(u, d, out=u)
    return tuple(out)
