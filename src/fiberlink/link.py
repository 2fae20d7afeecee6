"""Dual-fiber link model: propagation delay, carrier scaling, phase
detection, actuators, and the counting-style measurement chain.

Signals travel as phase-time (seconds).  A fiber adds its delay-fluctuation
record; the base propagation delay is quantized to whole simulation steps,
with the sub-step remainder carried as a static phase-time offset.  Radian
phase only appears at a detection carrier: phi = 2 pi f_c x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.signal (~0.9 s and ~75 MB to import) is imported inside the functions
# that filter, so loading, validating and the comb chain never pay for it.

from .errors import InvalidInputError
from .series import PhaseSeries

SECONDS_PER_KM = 5e-6   # group delay of standard single-mode fiber

ACTUATOR_KINDS = ("rf_phase_shifter", "piezo_stretcher", "thermal_spool")


@dataclass(frozen=True)
class Carrier:
    frequency_hz: float

    def __post_init__(self):
        if not self.frequency_hz > 0:
            raise InvalidInputError("carrier frequency must be positive")


@dataclass(frozen=True)
class FiberPath:
    """One fiber: length, base delay and its delay-fluctuation record."""
    length_km: float
    noise: PhaseSeries
    base_delay_s: float | None = None

    def __post_init__(self):
        if self.base_delay_s is None:
            object.__setattr__(self, "base_delay_s", self.length_km * SECONDS_PER_KM)
        if not self.base_delay_s > 0:
            raise InvalidInputError("base delay must be positive")

    def delay_steps(self):
        """(whole-step delay, sub-step remainder in seconds)."""
        steps = int(round(self.base_delay_s / self.noise.tau0))
        return steps, self.base_delay_s - steps * self.noise.tau0


@dataclass(frozen=True)
class DetectorConfig:
    """Phase detector: white noise floor (rad/sqrt(Hz) at the detection
    carrier) and the low-pass bandwidth of the counting measurement."""
    floor_rad_per_rthz: float = 0.0
    measurement_bw_hz: float = 10.0

    def __post_init__(self):
        if self.floor_rad_per_rthz < 0:
            raise InvalidInputError("detector noise floor must be non-negative")
        if not self.measurement_bw_hz > 0:
            raise InvalidInputError("measurement bandwidth must be positive")


@dataclass(frozen=True)
class ActuatorState:
    """A delay actuator with first-order response and finite authority."""
    kind: str
    range_s: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.kind not in ACTUATOR_KINDS:
            raise InvalidInputError(f"unknown actuator kind {self.kind!r}")
        if not (self.range_s > 0 and self.bandwidth_hz > 0):
            raise InvalidInputError("actuator range and bandwidth must be positive")


def actuator_alpha(bandwidth_hz, dt):
    """Per-step first-order smoothing coefficient for a given corner."""
    return 1.0 - np.exp(-2.0 * np.pi * bandwidth_hz * dt)


def to_radians(x: PhaseSeries, carrier: Carrier) -> PhaseSeries:
    """Phase-time record scaled to radians at the detection carrier."""
    scale = 2.0 * np.pi * carrier.frequency_hz
    return PhaseSeries(x.samples * scale, x.tau0,
                       label=f"{x.label}@{carrier.frequency_hz:g}Hz[rad]")


def delayed(samples, steps, fill=None):
    """Shift a record right by whole steps.

    Pre-history is held at the first value (natural for noise records) or at
    ``fill`` when given (0.0 for corrections: servos start at rest).
    """
    if steps <= 0:
        return samples.copy()
    pad = samples[0] if fill is None else fill
    return np.concatenate((np.full(steps, pad), samples[:-steps]))


def propagate(input_phase: PhaseSeries, path: FiberPath) -> PhaseSeries:
    """One pass through a fiber.

    Output phase-time = input delayed by the whole-step part of base_delay,
    minus the sub-step remainder (the received time scale lags), plus the
    fiber's delay fluctuation.
    """
    if not np.isclose(input_phase.tau0, path.noise.tau0, rtol=1e-9):
        raise InvalidInputError(
            f"input tau0 {input_phase.tau0} does not match path tau0 {path.noise.tau0}")
    if len(input_phase) != len(path.noise):
        raise InvalidInputError("input and path noise must have equal length")
    steps, remainder = path.delay_steps()
    out = delayed(input_phase.samples, steps) - remainder + path.noise.samples
    return PhaseSeries(out, input_phase.tau0,
                       label=f"{input_phase.label}>{path.length_km:g}km")


def round_trip(input_phase: PhaseSeries, path_out: FiberPath,
               path_back: FiberPath) -> PhaseSeries:
    """Two composed passes; ``path_out is path_back`` models a same-fiber loop."""
    return propagate(propagate(input_phase, path_out), path_back)


def detector_noise(cfg: DetectorConfig, carrier: Carrier, n, tau0, rng):
    """White detector noise converted to phase-time at the carrier."""
    if cfg.floor_rad_per_rthz == 0.0:
        return np.zeros(n)
    fs = 1.0 / tau0
    sigma_rad = cfg.floor_rad_per_rthz * np.sqrt(fs / 2.0)
    return rng.standard_normal(n) * sigma_rad / (2.0 * np.pi * carrier.frequency_hz)


def detect_phase(a: PhaseSeries, b: PhaseSeries, cfg: DetectorConfig,
                 carrier: Carrier, rng=None) -> PhaseSeries:
    """Phase difference a - b plus the detector's white noise floor.

    Phase wraps are not modeled; the phase-time domain is unbounded.  A
    generator is required whenever the configured floor is nonzero so runs
    stay reproducible.
    """
    if not np.isclose(a.tau0, b.tau0, rtol=1e-9) or len(a) != len(b):
        raise InvalidInputError("detector inputs must be aligned series")
    diff = a.samples - b.samples
    if cfg.floor_rad_per_rthz > 0.0:
        if rng is None:
            raise InvalidInputError("a seeded rng is required when the detector floor is nonzero")
        diff = diff + detector_noise(cfg, carrier, diff.size, a.tau0, rng)
    return PhaseSeries(diff, a.tau0, label="detected")


def measurement_lowpass(x: PhaseSeries, bandwidth_hz) -> PhaseSeries:
    """Single-pole low-pass modeling the counting measurement bandwidth."""
    if not bandwidth_hz > 0:
        raise InvalidInputError("measurement bandwidth must be positive")
    from scipy import signal

    alpha = actuator_alpha(bandwidth_hz, x.tau0)
    y = signal.lfilter([alpha], [1.0, -(1.0 - alpha)], x.samples)
    return PhaseSeries(y, x.tau0, label=f"{x.label}|lp{bandwidth_hz:g}Hz")


def sample_every(x: PhaseSeries, step_s) -> PhaseSeries:
    """Decimate by point sampling at the new step (gate instants)."""
    m = int(round(step_s / x.tau0))
    if m < 1 or abs(step_s - m * x.tau0) > 1e-9 * step_s:
        raise InvalidInputError("decimation step must be an integer multiple of tau0")
    if x.samples.size // m < 2:
        raise InvalidInputError("record too short to decimate at this step")
    return PhaseSeries(x.samples[::m], step_s, label=x.label)
