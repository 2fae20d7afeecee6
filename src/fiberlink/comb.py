"""Femtosecond-comb frequency arithmetic, the repetition-rate counting chain
against the disseminated microwave reference, and stability/accuracy
bookkeeping.

The optical frequency is tied to the comb repetition rate by

    f_opt = q * f_rep +/- delta

with a mode-number difference q around 29100 and delta collecting the net
phase-lock offsets (the carrier-envelope offset drops out of the scheme and
the intermediate transfer diodes are absorbed into delta).  At 30 THz a
float64 carries ~5 mHz of rounding, far above the required microhertz level,
so nominal frequencies are kept as exact rationals and time series carry
only small float offsets around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InvalidInputError
from .series import FracFreqSeries

COUNTER_RESOLUTION_HZ = 1e-6       # the counter's frequency resolution per gate


def as_fraction(value) -> Fraction:
    """Exact rational from int, float, str or Fraction input."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)        # exact binary expansion
    raise InvalidInputError(f"cannot interpret {value!r} as an exact frequency")


@dataclass(frozen=True)
class CombParams:
    """Comb arithmetic constants: f_opt = q * f_rep +/- delta."""
    q: int
    delta_hz: Fraction
    sign: int                          # +1 or -1
    f_rep_nominal_hz: Fraction

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer)) and self.q > 0):
            raise InvalidInputError("mode-number difference q must be a positive integer")
        if self.sign not in (+1, -1):
            raise InvalidInputError("sign must be +1 or -1")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "delta_hz", as_fraction(self.delta_hz))
        object.__setattr__(self, "f_rep_nominal_hz", as_fraction(self.f_rep_nominal_hz))
        if not self.f_rep_nominal_hz > 0:
            raise InvalidInputError("nominal repetition rate must be positive")

    @property
    def optical_nominal_hz(self) -> Fraction:
        return self.q * self.f_rep_nominal_hz + self.sign * self.delta_hz


def optical_from_rep_rate(params: CombParams, f_rep) -> Fraction:
    """Exact q * f_rep +/- delta (rationals throughout, no rounding)."""
    f_rep = as_fraction(f_rep)
    if not f_rep > 0:
        raise InvalidInputError("repetition rate must be positive")
    return params.q * f_rep + params.sign * params.delta_hz


def rep_rate_from_optical(params: CombParams, f_opt) -> Fraction:
    """Exact inverse: f_rep = (f_opt -/+ delta) / q."""
    return (as_fraction(f_opt) - params.sign * params.delta_hz) / params.q


@dataclass(frozen=True)
class FreqSeries:
    """A frequency record split as exact nominal + small float offsets."""
    nominal_hz: Fraction
    offsets_hz: np.ndarray
    tau0: float

    def __post_init__(self):
        off = np.asarray(self.offsets_hz, dtype=float)
        if not np.all(np.isfinite(off)):
            raise InvalidInputError("frequency offsets contain non-finite values")
        off.setflags(write=False)
        object.__setattr__(self, "offsets_hz", off)
        object.__setattr__(self, "nominal_hz", as_fraction(self.nominal_hz))

    def __len__(self):
        return self.offsets_hz.size

    def fractional(self) -> FracFreqSeries:
        nom = float(self.nominal_hz)
        return FracFreqSeries(self.offsets_hz / nom, self.tau0)


def rep_rate_lock(optical_reference_fractional: FracFreqSeries,
                  params: CombParams) -> FreqSeries:
    """Repetition-rate record of a comb locked to the optical standard.

    The lock is treated as ideal (servo residuals sit in the synthesizer
    budget term):  f_rep(t) = (f_opt_nominal * (1 + y_opt(t)) -/+ delta) / q.
    """
    y = optical_reference_fractional
    f_opt_nom = params.optical_nominal_hz
    offsets = y.samples * (float(f_opt_nom) / params.q)
    return FreqSeries(params.f_rep_nominal_hz, offsets, y.tau0)


@dataclass(frozen=True)
class CounterChainConfig:
    """Down-conversion chain: f_rep is mixed against an LO synthesized from
    the disseminated reference, shifted close to the final target, filtered
    and counted over contiguous gates."""
    lo_freq_hz: Fraction = Fraction(10 ** 9)
    if_target_hz: float = 5e6
    final_shift_target_hz: float = 68.0
    filter_bw_hz: float = 10.0
    gate_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lo_freq_hz", as_fraction(self.lo_freq_hz))
        for name in ("if_target_hz", "final_shift_target_hz", "filter_bw_hz",
                     "gate_s"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be positive")
        if self.filter_bw_hz >= self.if_target_hz:
            raise InvalidInputError("filter bandwidth must sit below the IF frequencies")


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-gate counted beat and the optical frequency deduced from it."""
    counted_hz: np.ndarray             # final beat per gate
    optical_nominal_hz: Fraction
    optical_offsets_hz: np.ndarray     # f_opt per gate minus nominal
    gate_s: float
    params: CombParams
    config: CounterChainConfig

    def __post_init__(self):
        for name in ("counted_hz", "optical_offsets_hz"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.counted_hz.size

    def optical_fractional(self) -> FracFreqSeries:
        return FracFreqSeries(self.optical_offsets_hz / float(self.optical_nominal_hz),
                              self.gate_s)

    def mean_optical_offset_hz(self) -> float:
        return float(np.mean(self.optical_offsets_hz))


def count_chain(f_rep: FreqSeries, reference_fractional: FracFreqSeries,
                cfg: CounterChainConfig, params: CombParams) -> MeasurementRecord:
    """Run the counting chain and reconstruct the optical frequency per gate.

    The LO and shift synthesizers inherit the reference's fractional error
    scaled by their nominal frequencies; mixing is exact frequency
    subtraction.  The post-mix filter acts as gate-level averaging, and the
    counter quantizes each gate at its resolution.  Reconstruction assumes
    nominal synthesizer settings, so reference noise enters the comparison.
    """
    if not np.isclose(f_rep.tau0, reference_fractional.tau0, rtol=1e-9):
        raise InvalidInputError("repetition-rate and reference series must share tau0")
    if len(f_rep) != len(reference_fractional):
        raise InvalidInputError("repetition-rate and reference series must share length")
    if f_rep.nominal_hz != params.f_rep_nominal_hz:
        raise InvalidInputError("repetition-rate series nominal disagrees with comb params")
    gate_samples = int(round(cfg.gate_s / f_rep.tau0))
    if gate_samples < 1 or abs(cfg.gate_s - gate_samples * f_rep.tau0) > 1e-9 * cfg.gate_s:
        raise InvalidInputError("gate must be an integer number of samples")
    n_gates = len(f_rep) // gate_samples
    if n_gates < 1:
        raise InvalidInputError("record shorter than one gate")

    f_rep_nom = f_rep.nominal_hz
    if_nominal = cfg.lo_freq_hz - f_rep_nom
    if if_nominal <= 0:
        raise ConfigError("LO must sit above the repetition rate")
    if abs(float(if_nominal) - cfg.if_target_hz) > 0.5 * cfg.if_target_hz:
        raise ConfigError(
            f"nominal IF {float(if_nominal):g} Hz is far from the chain target "
            f"{cfg.if_target_hz:g} Hz")
    shift_nom = if_nominal - as_fraction(cfg.final_shift_target_hz)
    if shift_nom <= 0:
        raise ConfigError("shift synthesizer frequency must be positive")

    y_ref = reference_fractional.samples
    # beat = (LO - shift)(1 + y_ref) - f_rep
    #      = target + (f_rep_nom + target) * y_ref - df_rep
    target = cfg.final_shift_target_hz
    beat = (float(f_rep_nom) + target) * y_ref
    beat += target
    beat -= f_rep.offsets_hz

    # Rounding is monotone, so the extremes of beat - target are those of beat.
    wander = float(max(np.max(beat) - target, target - np.min(beat)))
    if wander > 0.5 * cfg.filter_bw_hz:
        raise ConfigError(
            f"beat wanders {wander:g} Hz from {target:g} Hz, "
            f"outside the {cfg.filter_bw_hz:g} Hz filter")

    counted = beat[: n_gates * gate_samples].reshape(n_gates, gate_samples).mean(axis=1)
    del beat
    counted /= COUNTER_RESOLUTION_HZ
    np.round(counted, out=counted)
    counted *= COUNTER_RESOLUTION_HZ

    # Deduced repetition rate per gate, then f_opt = q * f_rep +/- delta:
    # the nominal part stays exact, only small offsets ride on floats.
    opt_offsets = np.subtract(target, counted)
    opt_offsets *= params.q
    return MeasurementRecord(
        counted_hz=counted,
        optical_nominal_hz=params.optical_nominal_hz,
        optical_offsets_hz=opt_offsets,
        gate_s=cfg.gate_s,
        params=params,
        config=cfg,
    )


@dataclass(frozen=True)
class BudgetEntry:
    label: str
    sigma_at_1s: float


@dataclass(frozen=True)
class BudgetResult:
    measured_at_1s: float
    contributions: tuple
    residual_upper_bound: float
    clamped: bool


def stability_budget(measured_at_1s, contributions) -> BudgetResult:
    """Quadrature-subtract known contributions from a measured deviation.

    Returns sqrt(max(0, measured^2 - sum sigma_i^2)); a negative radicand
    clamps to zero and sets the flag.  No attempt is made to second-guess
    the inputs.
    """
    if measured_at_1s < 0:
        raise InvalidInputError("measured deviation must be non-negative")
    entries = tuple(contributions)
    for e in entries:
        if e.sigma_at_1s < 0:
            raise InvalidInputError(f"budget entry {e.label!r} has negative sigma")
    total = measured_at_1s ** 2 - sum(e.sigma_at_1s ** 2 for e in entries)
    clamped = bool(total < 0)
    residual = float(np.sqrt(max(total, 0.0)))
    return BudgetResult(measured_at_1s=float(measured_at_1s), contributions=entries,
                        residual_upper_bound=residual, clamped=clamped)


def absolute_freq_estimate(records, nu_ref):
    """Mean frequency offset from nu_ref across records, with 1-sigma spread.

    Each record contributes its per-gate mean optical frequency; the result
    is (mean - nu_ref, sample standard deviation) in Hz.
    """
    records = list(records)
    if len(records) < 2:
        raise InvalidInputError("need at least 2 measurement records")
    nu_ref = as_fraction(nu_ref)
    offsets = []
    for rec in records:
        base = float(rec.optical_nominal_hz - nu_ref)
        offsets.append(base + rec.mean_optical_offset_hz())
    offsets = np.array(offsets)
    return float(np.mean(offsets)), float(np.std(offsets, ddof=1))
