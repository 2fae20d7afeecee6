"""Dual-fiber link model: the whole-step delay line, carrier scaling, the
detector noise floor, actuators, and the counting-style measurement chain.

Signals travel as phase-time (seconds).  A fiber pass delays what it
carries by the one-way delay, a whole number of simulation steps (the
scenario rounds the delay to the step and refuses one under a step), and
adds the fiber's delay-fluctuation record; ``fiberlink.control.run_closed_loop``
composes the passes of both fibers.  Radian phase only appears at a
detection carrier: phi = 2 pi f_c x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .series import PhaseSeries

ACTUATOR_KINDS = ("rf_phase_shifter", "piezo_stretcher", "thermal_spool")


@dataclass(frozen=True)
class Carrier:
    frequency_hz: float

    def __post_init__(self):
        if not self.frequency_hz > 0:
            raise InvalidInputError("carrier frequency must be positive")

    def radians(self, seconds):
        """Phase-time samples as radians of phase at this carrier."""
        return seconds * (2.0 * np.pi * self.frequency_hz)


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
    # math.exp: numpy's SIMD exp rounds differently at each host level.
    return 1.0 - math.exp(-2.0 * np.pi * bandwidth_hz * dt)


def to_radians(x: PhaseSeries, carrier: Carrier) -> PhaseSeries:
    """Phase-time record scaled to radians at the detection carrier."""
    return PhaseSeries(carrier.radians(x.samples), x.tau0,
                       label=f"{x.label}@{carrier.frequency_hz:g}Hz[rad]")


def detector_noise(cfg: DetectorConfig, carrier: Carrier, n, tau0, rng, out=None):
    """``n`` samples of white detector noise converted to phase-time at the
    carrier, written into ``out`` (of ``n`` samples) if given."""
    x = np.empty(n) if out is None else out
    if cfg.floor_rad_per_rthz == 0.0:
        x.fill(0.0)
        return x
    fs = 1.0 / tau0
    sigma_rad = cfg.floor_rad_per_rthz * np.sqrt(fs / 2.0)
    rng.standard_normal(out=x)
    x *= sigma_rad / (2.0 * np.pi * carrier.frequency_hz)
    return x


@functools.cache
def _linear_filter():
    """scipy's IIR filter routine, ``scipy.signal._sigtools._linear_filter``.

    Only that extension module is loaded, on first use, from the installed
    scipy's files: importing ``scipy.signal`` costs about 0.9 s and 75 MB,
    and finding the module's spec by its dotted name would import it too.
    Whichever of this and ``scipy.signal`` is loaded first, this is the
    function ``scipy.signal.lfilter`` calls.
    """
    import importlib.machinery
    import importlib.util
    import os

    name = "scipy.signal._sigtools"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(scipy_dir, "signal", "_sigtools" + suffix)
        if os.path.exists(path):
            break
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module._linear_filter


def _lfilter(b, a, x, zi):
    """``scipy.signal.lfilter(b, a, x, zi=zi)`` of 1-d float arrays with
    ``len(a) > 1``: lfilter's own call for that case, so the same bits."""
    return _linear_filter()(b, a, x, -1, zi)


class Lowpass:
    """Single-pole low-pass modeling the counting measurement bandwidth,
    started at rest and run over consecutive chunks of one record."""

    def __init__(self, bandwidth_hz, tau0):
        if not bandwidth_hz > 0:
            raise InvalidInputError("measurement bandwidth must be positive")
        alpha = actuator_alpha(bandwidth_hz, tau0)
        self._b, self._a = np.array([alpha]), np.array([1.0, -(1.0 - alpha)])
        self._zi = np.zeros(1)

    def __call__(self, samples):
        y, self._zi = _lfilter(self._b, self._a, samples, self._zi)
        return y


def measurement_lowpass(x: PhaseSeries, bandwidth_hz) -> PhaseSeries:
    """Single-pole low-pass modeling the counting measurement bandwidth."""
    y = Lowpass(bandwidth_hz, x.tau0)(x.samples)
    return PhaseSeries(y, x.tau0, label=f"{x.label}|lp{bandwidth_hz:g}Hz")


def _decimation(step_s, tau0, n):
    m = int(round(step_s / tau0))
    if m < 1 or abs(step_s - m * tau0) > 1e-9 * step_s:
        raise InvalidInputError("decimation step must be an integer multiple of tau0")
    if n // m < 2:
        raise InvalidInputError("record too short to decimate at this step")
    return m


def sample_every(x: PhaseSeries, step_s) -> PhaseSeries:
    """Decimate by point sampling at the new step (gate instants).

    The points are a copy, so they do not keep the full record alive.
    """
    m = _decimation(step_s, x.tau0, x.samples.size)
    return PhaseSeries(x.samples[::m].copy(), step_s, label=x.label)


class CountingChain:
    """``sample_every(measurement_lowpass(x, bandwidth_hz), gate_s)`` of an
    ``n``-sample record x fed in consecutive chunks; holds only the points."""

    def __init__(self, n, tau0, bandwidth_hz, gate_s):
        self._lowpass = Lowpass(bandwidth_hz, tau0)
        self._every = _decimation(gate_s, tau0, n)
        self._gate_s, self._bandwidth_hz = gate_s, bandwidth_hz
        self._seen = 0
        self._points = []

    def push(self, samples):
        y = self._lowpass(samples)
        self._points.append(y[-self._seen % self._every:: self._every].copy())
        self._seen += samples.size

    def series(self, label) -> PhaseSeries:
        return PhaseSeries(np.concatenate(self._points), self._gate_s,
                           label=f"{label}|lp{self._bandwidth_hz:g}Hz")
