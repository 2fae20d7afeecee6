"""Calibrated perturbation synthesis: power-law noise, diurnal drift,
noise bursts, and correlated dual-fiber pairs.

All noise is expressed as delay fluctuation in seconds (phase-time); it is
carrier independent, and conversion to radians happens at the detection
carrier (see ``fiberlink.link.to_radians``).  Power-law levels parameterize
the one-sided fractional-frequency PSD

    S_y(f) = sum_alpha  h_alpha * f**alpha,      alpha in {-2,-1,0,1,2}

(random-walk FM, flicker FM, white FM, flicker PM, white PM).  Synthesis is
frequency-domain shaping of white Gaussian noise with an f**(alpha/2)
magnitude filter, DC bin zeroed, then integration to phase-time.  Everything
is deterministic for a given 64-bit seed; components draw from sub-streams
keyed by (seed, component tag), so a composite spec is exactly the sum of
its individually generated parts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .series import PhaseSeries

SUPPORTED_ALPHAS = (-2, -1, 0, 1, 2)

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
class DiurnalSpec:
    """Sinusoidal delay drift: amplitude is the peak excursion in seconds."""
    amplitude_s: float
    period_s: float = 86400.0
    phase_rad: float = 0.0

    def __post_init__(self):
        if not self.period_s > 0:
            raise InvalidInputError("diurnal period must be positive")
        if self.amplitude_s < 0:
            raise InvalidInputError("diurnal amplitude must be non-negative")


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
    """Composite perturbation recipe for one fiber (or one oscillator)."""
    powerlaw: tuple = ()            # ((alpha, h_alpha), ...)
    diurnal: DiurnalSpec | None = None
    bursts: BurstSpec | None = None

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


def _shaped_frac_freq(alpha, level, n_y, tau0, rng):
    """One power-law component of y with one-sided S_y(f) = level * f**alpha."""
    if level == 0.0:
        return np.zeros(n_y)
    fs = 1.0 / tau0
    w = rng.standard_normal(n_y)
    spec = np.fft.rfft(w)
    f = np.fft.rfftfreq(n_y, tau0)
    gain = np.zeros_like(f)
    gain[1:] = np.sqrt(level * f[1:] ** alpha * fs / 2.0)
    return np.fft.irfft(spec * gain, n=n_y)


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
        x = np.concatenate(([0.0], np.cumsum(y))) * tau0
        total = total + x
    return PhaseSeries(total, tau0, label="powerlaw")


def diurnal_samples(amplitude_s, period_s, phase_rad, start, stop, tau0):
    """Samples ``start`` to ``stop - 1`` of x(t) = A sin(2 pi t / T + phase)."""
    t = np.arange(start, stop) * tau0
    return amplitude_s * np.sin(2.0 * np.pi * t / period_s + phase_rad)


def gen_diurnal(amplitude_s, period_s, phase_rad, n, tau0) -> PhaseSeries:
    """Deterministic sinusoidal delay drift x(t) = A sin(2 pi t / T + phase)."""
    if not period_s > 0:
        raise InvalidInputError("period must be positive")
    return PhaseSeries(diurnal_samples(amplitude_s, period_s, phase_rad, 0, n, tau0),
                       tau0, label="diurnal")


def _pulse_piece(amplitude_s, duration_s, tau0, lo, hi):
    # Samples lo to hi - 1 of the raised-cosine pulse.
    t = np.arange(lo, hi) * tau0
    return amplitude_s * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / duration_s))


def _pulse_len(duration_s, tau0):
    return max(int(round(duration_s / tau0)), 2) + 1


def burst_pulse(amplitude_s, duration_s, tau0):
    """Raised-cosine pulse samples; peak value equals the amplitude."""
    return _pulse_piece(amplitude_s, duration_s, tau0, 0, _pulse_len(duration_s, tau0))


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
            amps = spec.amp_median_s * np.exp(spec.amp_sigma * rng.standard_normal(count))
            self._pulses = [(int(round(t0 / tau0)), amp) for t0, amp in zip(starts, amps)]

    def samples(self, start, stop):
        """Samples ``start`` to ``stop - 1`` of the record."""
        x = np.zeros(stop - start)
        size = _pulse_len(self._duration_s, self._tau0)
        for i0, amp in self._pulses:
            lo, hi = max(i0, start), min(i0 + size, stop, self._n)
            if lo < hi:
                x[lo - start: hi - start] += _pulse_piece(amp, self._duration_s,
                                                          self._tau0, lo - i0, hi - i0)
        return x


def gen_bursts(spec: BurstSpec, n, tau0, seed) -> PhaseSeries:
    """Poisson-arriving raised-cosine delay excursions.

    Arrival count is Poisson(rate * n * tau0); arrivals are uniform over the
    record and pulses overhanging the end are truncated.
    """
    return PhaseSeries(BurstTrain(spec, n, tau0, seed).samples(0, n), tau0, label="bursts")


def gen_noise(spec: NoiseSpec, n, tau0, seed) -> PhaseSeries:
    """Full composite realization: power laws + diurnal + bursts."""
    x = gen_power_law_phase(spec, n, tau0, seed).samples
    if spec.diurnal is not None:
        x = x + gen_diurnal(spec.diurnal.amplitude_s, spec.diurnal.period_s,
                            spec.diurnal.phase_rad, n, tau0).samples
    if spec.bursts is not None:
        x = x + gen_bursts(spec.bursts, n, tau0, seed).samples
    return PhaseSeries(x, tau0, label="noise")


def fiber_pair(ratio, draw):
    """Two fiber records sharing a common mode, from unit realizations.

    ``draw(j)`` returns realization j: 0 is the common mode, 1 and 2 the
    fibers' own parts.  They are combined as

        fiber_i = sqrt(1 - r^2/2) * u_0  +  (r / sqrt(2)) * u_i

    which preserves the single-fiber level and makes RMS(fiber1 - fiber2) /
    RMS(fiber1) equal the ratio r -- so the Allan deviation of the fiber
    difference is r times the single-fiber Allan deviation.  r = 0 yields
    identical records without drawing u_1 or u_2.  Full independence would
    require r = sqrt(2), outside the accepted [0, 1] range, so the residual
    inter-fiber correlation at r = 1 is 0.5.
    """
    x1 = np.sqrt(1.0 - 0.5 * ratio * ratio) * draw(0)
    x2 = x1.copy()
    if ratio > 0.0:
        d = ratio / np.sqrt(2.0)
        x1 += d * draw(1)
        x2 += d * draw(2)
    return x1, x2


def correlated_pair(spec: NoiseSpec, differential_ratio, n, tau0, seed):
    """Two fiber noise records: the spec's stochastic parts combined by
    ``fiber_pair``, plus its diurnal term as pure common mode."""
    r = float(differential_ratio)
    if not 0.0 <= r <= 1.0:
        raise InvalidInputError(f"differential_ratio must be in [0, 1], got {r}")
    stoch = NoiseSpec(powerlaw=spec.powerlaw, bursts=spec.bursts)
    x1, x2 = fiber_pair(r, lambda j: gen_noise(
        stoch, n, tau0, component_rng(seed, "pair", j).integers(2 ** 63)).samples)
    if spec.diurnal is not None:
        diurnal = gen_diurnal(spec.diurnal.amplitude_s, spec.diurnal.period_s,
                              spec.diurnal.phase_rad, n, tau0).samples
        x1 += diurnal
        x2 += diurnal
    return (PhaseSeries(x1, tau0, label="fiber1"),
            PhaseSeries(x2, tau0, label="fiber2"))
