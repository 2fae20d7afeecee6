"""Core signal containers: phase-time records, fractional-frequency records,
Allan-deviation curves and PSD estimates.

Phase-time x(t) is the universal signal representation: a clock/phase error
expressed in seconds, uniformly sampled.  Fractional frequency y is its
normalized first difference.  All containers are immutable; operations on
them return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError


def _checked_array(values, name, min_len=1):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    if arr.size < min_len:
        raise InvalidInputError(f"{name} needs at least {min_len} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhaseSeries:
    """Uniformly sampled phase-time record x_n, in seconds of time offset.

    The same container carries radian-valued phase after carrier scaling;
    the ``label`` records the interpretation.
    """

    samples: np.ndarray
    tau0: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.tau0) and self.tau0 > 0):
            raise InvalidInputError(f"tau0 must be positive, got {self.tau0}")
        object.__setattr__(self, "samples", _checked_array(self.samples, "samples", min_len=2))

    def __len__(self):
        return self.samples.size

    @property
    def duration(self):
        return self.samples.size * self.tau0

    def times(self):
        return np.arange(self.samples.size) * self.tau0


@dataclass(frozen=True)
class FracFreqSeries:
    """Dimensionless fractional-frequency record y_n at averaging interval tau0."""

    samples: np.ndarray
    tau0: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.tau0) and self.tau0 > 0):
            raise InvalidInputError(f"tau0 must be positive, got {self.tau0}")
        object.__setattr__(self, "samples", _checked_array(self.samples, "samples", min_len=1))

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class AdevCurve:
    """Allan deviation sigma_y(tau) with pair counts and estimator metadata.

    ``notes`` records derived quantities (e.g. a one-way curve deduced from a
    round trip); ``omitted_taus`` flags requested taus dropped for lack of data.
    """

    taus: np.ndarray
    sigmas: np.ndarray
    n_pairs: np.ndarray
    estimator: str
    notes: tuple = ()
    omitted_taus: tuple = ()

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        pairs = np.asarray(self.n_pairs, dtype=int)
        if not (taus.size == sigmas.size == pairs.size):
            raise InvalidInputError("taus, sigmas and n_pairs must have equal length")
        if taus.size and np.any(np.diff(taus) <= 0):
            raise InvalidInputError("taus must be strictly increasing")
        if np.any(sigmas < 0):
            raise InvalidInputError("sigma values must be non-negative")
        if taus.size and np.any(pairs < 1):
            raise InvalidInputError("n_pairs must be at least 1")
        for name, arr in (("taus", taus), ("sigmas", sigmas)):
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} contains non-finite values")
            arr.setflags(write=False)
        pairs.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "n_pairs", pairs)

    def __len__(self):
        return self.taus.size

    def sigma_at(self, tau, rtol=1e-9):
        """Sigma at the point whose tau matches ``tau`` within rtol."""
        idx = np.nonzero(np.isclose(self.taus, tau, rtol=rtol, atol=0.0))[0]
        if idx.size != 1:
            raise InvalidInputError(f"no unique curve point at tau={tau}")
        return float(self.sigmas[idx[0]])

    def scaled(self, factor, note):
        return replace(
            self,
            sigmas=self.sigmas * factor,
            notes=self.notes + (note,),
        )


@dataclass(frozen=True)
class PsdEstimate:
    """One-sided power spectral density with resolution-bandwidth metadata.

    Units follow the input: rad^2/Hz for radian phase, s^2/Hz for phase-time,
    1/Hz for fractional frequency.
    """

    freqs: np.ndarray
    values: np.ndarray
    rbw_hz: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if freqs.size != values.size:
            raise InvalidInputError("freqs and values must have equal length")
        if freqs.size > 1 and np.any(np.diff(freqs) <= 0):
            raise InvalidInputError("freqs must be strictly increasing")
        if np.any(values < 0):
            raise InvalidInputError("PSD values must be non-negative")
        if not (np.isfinite(self.rbw_hz) and self.rbw_hz > 0):
            raise InvalidInputError("rbw_hz must be positive")
        freqs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @property
    def bin_hz(self):
        """Spacing of the (uniform) frequency grid: the first two bins'
        distance, or ``rbw_hz`` for an estimate of fewer than two bins."""
        return float(self.freqs[1] - self.freqs[0]) if self.freqs.size > 1 else self.rbw_hz

    def band_mean(self, f_lo, f_hi):
        """Mean PSD over bins with f_lo <= f <= f_hi."""
        mask = (self.freqs >= f_lo) & (self.freqs <= f_hi)
        if not np.any(mask):
            raise InvalidInputError(f"no PSD bins in [{f_lo}, {f_hi}] Hz")
        return float(np.mean(self.values[mask]))
