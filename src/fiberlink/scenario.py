"""Declarative scenario execution: configuration ingestion, simulation
orchestration, result persistence and plot-ready CSV exports.

A scenario is a JSON file; a ``preset`` key expands to a fully calibrated
configuration which individual keys may override.  Presets ship with
calibrated noise inputs chosen to reproduce the reported link behavior;
since only outcomes are known, every calibration constant that is not a
measured quantity is listed under ``assumed`` in the resolved echo.

Long runs use a dual-rate scheme: a full-rate simulation resolves the servo
band (default 0.1 ms step), while day-scale statistics come from a 1 s step
model in which the loops act through the simulated servo's sensitivity
(``control.loop_sensitivity``).  Both draw their fiber records chunk by
chunk from one table of per-fiber noise parts (``_fiber_parts``).  The
decimated model is validated against the full-rate one over their overlap
in the test suite.

The full-rate simulation is one pipeline over chunks of ``_CHUNK`` samples:
each chunk's noise is drawn, run through both servo loops (which carry
their state to the next chunk), the counting low-pass and 1 s point
sampling, and into a Welch accumulator that holds one PSD segment and a
running sum of periodograms.  The noise is drawn on one worker thread, up
to two chunks ahead of the servo, in place into two slots of the chunk's
five records (two fibers, three detectors) that are allocated once per run
and used in turn; the calling thread runs everything else.  Each noise
source is drawn by the worker alone, in chunk order, and numpy releases
the GIL in the draws and the array arithmetic, so the two threads overlap.
No full-rate record is held whole, so memory does not grow with the
full-rate duration, and every output has the bytes of one pass over the
whole record.  A scenario with an unstable loop is refused at load; a loop
that still diverges in a run is stopped by the engines' rule (see
``fiberlink.control``).  Caps on the sample counts a scenario asks for, on
the Welch work, and what the counting chain and Welch need of the settled
record, are checked at load.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
import os
import re
import time
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import io as fio
from .comb import (BudgetEntry, CombParams, CounterChainConfig,
                   absolute_freq_estimate, as_fraction, count_chain,
                   rep_rate_lock, stability_budget)
from .control import (RUN_TOPOLOGIES, ControllerConfig, LinkLoopConfig, _peak,
                      _unstable_poles, loop_suppression, run_closed_loop)
from .errors import DivergenceError, InvalidInputError, ScenarioValidationError
from .link import (ActuatorState, Carrier, CountingChain, DetectorConfig,
                   _decimation, detector_noise)
from .noise import (BurstSpec, BurstTrain, WalkPhase, _fast_len, component_rng,
                    diurnal_samples, fiber_pair, white_fm_level_for)
from .series import AdevCurve, FracFreqSeries, PhaseSeries
from .stability import (WelchAccumulator, _tau_multiple, _tau_multiples, allan_deviation,
                        allan_deviation_phase, welch_segments)
# Names perfbench's tracer wraps that no run calls, seven in all: the
# one-chunk forms of the streamed stages, and the power-law synthesis.  They
# stay as public API: fiberlink exports them, and tests use them as
# whole-record references for the chunked sources.
from .link import measurement_lowpass, sample_every, to_radians  # noqa: F401
from .noise import gen_bursts, gen_diurnal, gen_power_law_phase  # noqa: F401
from .stability import psd_welch  # noqa: F401

PRESETS = ("fig1", "fig4", "budget")
_GATE_S = 1.0       # counting gate of the full-rate measurement chain
_CHUNK = 2 ** 16    # samples per chunk of the full-rate pipeline

# Caps on the samples a scenario asks for, checked at load from the numbers
# alone, so an oversized run is refused as a listed problem instead of
# failing in the allocator.  Sizes are for a 2-vCPU host.
# Full-rate samples run in chunks, so memory stays flat and this bounds run
# time (~0.18 us a sample at the default delay with the noise drawn on the
# second vCPU, 0.24 us on one; ~12 s at the cap): 1.9 h at the 0.1 ms step.
_MAX_FULLRATE_SAMPLES = 2 ** 26
# Welch transforms PSD segments x segment samples, ~50 ns each (51 segments
# of 600,000 took 1.5 s): ~13 s at the cap.  A psd_overlap of at most 0.75
# starts a segment every quarter segment or later, so it transforms each
# settled sample at most 4 times: every run inside the full-rate cap fits.
_MAX_WELCH_WORK = 4 * _MAX_FULLRATE_SAMPLES
# The servo's loop filters have order 2m + 2 for a one-way delay of m steps,
# so its time grows with full-rate samples x (2m + 2).  On this cap's edge a
# fig1-based run took 54 s at 2^26 samples and m = 63 (the slowest measured),
# 39 s at 2^25 and m = 127; 86 km (m = 4) at 2^26 samples is 2^29.3.
_MAX_SERVO_WORK = 2 ** 33
# The decimated model peaks near 34 B a sample, in its loop suppression
# (VmHWM above a warm run, 10 and 40 days): ~0.29 GB; 97 days at 1 s.
_MAX_DECIMATED_SAMPLES = 2 ** 23
# Comb gates: exact arithmetic and the gate CSV, ~0.4 us and ~60 B a gate
# (2^22 gates: 1.6 s and 0.24 GB above a warm run).
_MAX_COMB_GATES = 2 ** 22
# Budget records x gates per record; a record costs ~0.17 ms and ~0.7 kB,
# so even one gate a record stays under 3 minutes and 0.7 GB.
_MAX_BUDGET_GATES = 2 ** 20


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:          # an integer beyond the float range
        return False


_LONG_EXPONENT = re.compile(r"[eE][-+]?[0_]*[1-9][0-9_]{3,}")


def _is_exact(value):
    # Parsed as comb.as_fraction will parse it during the run.  A string
    # with an exponent of 1000 or more is refused before parsing: Fraction
    # would build that power of ten exactly, which takes seconds at 1e10000000.
    try:
        return (not isinstance(value, bool)
                and not (isinstance(value, str) and _LONG_EXPONENT.search(value))
                and math.isfinite(as_fraction(value)))
    except (InvalidInputError, ValueError, TypeError, OverflowError,
            ZeroDivisionError):
        return False


# A check is a predicate and the phrase of its message: a value that fails
# it is listed as "<path> must be <phrase>, got <value>".  A key's checks
# run in order and the first that fails is listed.
_POSITIVE = ((lambda v: _is_real(v) and v > 0, "positive"),)
_NON_NEGATIVE = ((lambda v: _is_real(v) and v >= 0, "non-negative"),)
_FINITE = ((_is_real, "a finite number"),)
_FLAG = ((lambda v: isinstance(v, bool), "true or false"),)
_EXACT = ((_is_exact, "a finite number or decimal string"),)
_LABEL = ((lambda v: isinstance(v, str), "a string"),)
# A fractional frequency deviation; comb.stability_budget squares it.
_DEVIATION = _NON_NEGATIVE + ((lambda v: v < 1, "below 1"),)
_TAUS = ((lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list"),
         (lambda v: all(_is_real(t) and t > 0 for t in v), "a list of positive numbers"))


def _int_at_least(low):
    return ((lambda v: _is_int(v) and v >= low, f"an integer >= {low}"),)


# One leaf per scenario key: its default, its checks, and whether the default
# is a calibration assumption (the measured record reports outcomes, not
# these inputs).
_Key = namedtuple("_Key", "default checks assumed", defaults=(False,))

_SCHEMA = {
    "seed": _Key(None, ((lambda v: _is_int(v) and 0 <= v < 2 ** 64,
                         "a 64-bit non-negative integer"),)),
    "preset": _Key(None, ((lambda v: v is None or v in PRESETS,
                           f"null or {'|'.join(PRESETS)}"),)),
    "link": {
        "enabled": _Key(False, _FLAG),
        "length_km": _Key(43.0, _POSITIVE),
        "delay_per_km_s": _Key(5e-6, _POSITIVE),
        "step_s": _Key(1e-4, _POSITIVE),
        "carrier_return_hz": _Key(1.0e8, _POSITIVE),
        "carrier_probe_hz": _Key(2.7e8, _POSITIVE),
        "noise": {
            "white_pm_sx_s2_per_hz": _Key(4.775e-30, _NON_NEGATIVE, assumed=True),
            "diurnal_amplitude_s": _Key(4.3e-11, _NON_NEGATIVE, assumed=True),
            "diurnal_period_s": _Key(86400.0, _POSITIVE),
            "diurnal_phase_rad": _Key(0.0, _FINITE),
            # about two events per day
            "burst_rate_per_s": _Key(2.3148e-5, _NON_NEGATIVE, assumed=True),
            "burst_amp_median_s": _Key(5e-12, _NON_NEGATIVE, assumed=True),
            "burst_amp_sigma": _Key(0.5, _NON_NEGATIVE, assumed=True),
            "burst_duration_s": _Key(30.0, _POSITIVE, assumed=True),
            "walk_fm_h": _Key(0.0, _NON_NEGATIVE),
            "differential_ratio": _Key(0.1, ((lambda v: _is_real(v) and 0 <= v <= 1,
                                              "in [0, 1]"),), assumed=True),
        },
        "detector": {
            # -117 dB per loop
            "floor_rad_per_rthz": _Key(1.4142135623730952e-6, _NON_NEGATIVE, assumed=True),
            "measurement_bw_hz": _Key(10.0, _POSITIVE),
        },
    },
    "controllers": {
        "topology": _Key("series", ((lambda v: v in RUN_TOPOLOGIES,
                                     "|".join(RUN_TOPOLOGIES)),)),
        "unity_gain_hz": _Key(300.0, _POSITIVE),
        "integrator_corner_hz": _Key(30.0, _NON_NEGATIVE, assumed=True),
        "crossover_hz": _Key(0.1, _NON_NEGATIVE, assumed=True),
        "rf_shifter_range_s": _Key(1e-9, _POSITIVE, assumed=True),
        "rf_shifter_bandwidth_hz": _Key(5e4, _POSITIVE, assumed=True),
        "piezo_range_s": _Key(5e-11, _POSITIVE, assumed=True),
        "piezo_bandwidth_hz": _Key(5e3, _POSITIVE, assumed=True),
        "thermal_range_s": _Key(1e-8, _POSITIVE, assumed=True),
        "thermal_bandwidth_hz": _Key(0.3, _POSITIVE, assumed=True),
        # 1e-17 at one day
        "closed_floor_walk_fm_h": _Key(1.759e-40, _NON_NEGATIVE, assumed=True),
    },
    "comb": {
        "enabled": _Key(False, _FLAG),
        "q": _Key(29100, ((lambda v: _is_int(v) and v > 0, "a positive integer"),)),
        "f_rep_nominal_hz": _Key("995000000", _EXACT + (
            (lambda v: as_fraction(v) > 0, "positive"),), assumed=True),
        "delta_hz": _Key("40000000", _EXACT, assumed=True),
        "sign": _Key(1, ((lambda v: _is_int(v) and v in (1, -1), "1 or -1"),),
                     assumed=True),
        "lo_freq_hz": _Key("1000000000", _EXACT),
        "if_target_hz": _Key(5e6, _POSITIVE),
        "final_shift_target_hz": _Key(68.0, _POSITIVE),
        "filter_bw_hz": _Key(10.0, _POSITIVE),
        "gate_s": _Key(1.0, _POSITIVE),
        "n_gates": _Key(4000, _int_at_least(8)),
        "optical_sigma_1s": _Key(3e-14, _POSITIVE),
        "reference_sigma_1s": _Key(8e-15, _POSITIVE),
        "link_sigma_1s": _Key(8e-15, _POSITIVE),
    },
    "budget": {
        "enabled": _Key(False, _FLAG),
        "measured_sigma_1s": _Key(3e-14, _DEVIATION),
        # Each entry's label and sigma_at_1s are checked in _validate.
        "contributions": _Key(
            [{"label": "optical_link", "sigma_at_1s": 8e-15},
             {"label": "reference_100mhz", "sigma_at_1s": 8e-15}],
            ((lambda v: isinstance(v, list) and all(
                isinstance(e, dict) and set(e) == {"label", "sigma_at_1s"} for e in v),
              "a list of {label, sigma_at_1s} objects"),)),
        "records": _Key(10, _int_at_least(2)),
        "record_mean_offset_hz": _Key(3.9, _FINITE),
        "record_sigma_hz": _Key(10.0, _POSITIVE),
        "record_gates": _Key(20, _int_at_least(1)),
        "nu_ref_offset_hz": _Key(0.0, _EXACT),
    },
    "run": {
        "fullrate_duration_s": _Key(240.0, _POSITIVE),
        "decimated_duration_s": _Key(172800.0, _POSITIVE),
        "decimated_step_s": _Key(1.0, _POSITIVE),
        "transient_discard_s": _Key(20.0, _NON_NEGATIVE),
    },
    "outputs": {
        "adev_taus_s": _Key([1, 2, 5, 10, 20, 50, 100, 200, 500,
                             1000, 2000, 5000, 10000, 20000, 40000, 43200], _TAUS),
        "fullrate_taus_s": _Key([1, 2, 4, 8, 16, 32], _TAUS),
        "psd_segment_s": _Key(60.0, _POSITIVE),
        "psd_overlap": _Key(0.5, ((lambda v: _is_real(v) and 0 <= v < 1, "in [0, 1)"),)),
        # The series keep the decimated open record through the suppression,
        # so a run that asks for them peaks ~6 MB higher at 10 days.
        "write_decimated_series": _Key(False, _FLAG),
    },
}


def _leaves(tree, path=""):
    """(dotted path, leaf) for every leaf of a nested table."""
    for name, node in tree.items():
        here = f"{path}.{name}" if path else name
        if isinstance(node, dict):
            yield from _leaves(node, here)
        else:
            yield here, node


def _defaults(tree):
    return {name: _defaults(node) if isinstance(node, dict) else node.default
            for name, node in tree.items()}


_LEAVES = tuple(_leaves(_SCHEMA))
_DEFAULTS = _defaults(_SCHEMA)

_PRESET_OVERRIDES = {
    "fig1": {"link": {"enabled": True}},
    "fig4": {"comb": {"enabled": True}},
    "budget": {"budget": {"enabled": True}},
}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: defaults applied and recorded."""
    data: dict
    assumed: tuple
    source: str = "<dict>"

    def __getitem__(self, key):
        return self.data[key]

    def seed(self):
        return int(self.data["seed"])


@dataclass
class RunReport:
    """Echo of the resolved scenario plus the run's outputs and warnings."""
    scenario_echo: dict
    assumed: tuple
    seed: int
    manifest: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    wall_time_s: float = 0.0
    error: str | None = None
    results: dict = field(default_factory=dict)   # in-memory, not serialized

    def write(self, out_dir):
        path = os.path.join(out_dir, "run_report.json")
        payload = {
            "scenario": self.scenario_echo,
            "assumed": list(self.assumed),
            "seed": self.seed,
            "manifest": self.manifest,
            "warnings": self.warnings,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path


def _deep_merge(base, override, problems, provenance=None, path=""):
    """Merge override into a copy of base, listing unknown keys and tables
    overridden with a non-object (which keep their defaults)."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            problems.append(f"unknown key {here!r}")
        elif not isinstance(base[key], dict):
            out[key] = copy.deepcopy(value)
            if provenance is not None:
                provenance.add(here)
        elif isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, problems, provenance, here)
        else:
            problems.append(f"{here} must be an object, got {value!r}")
    return out


def load_scenario(path_or_dict) -> Scenario:
    """Load, expand and validate a scenario.

    Validation is exhaustive: every detected problem is listed in the raised
    ``ScenarioValidationError``, not just the first.
    """
    return _load(path_or_dict, None)


def _load(path_or_dict, seed):
    """``load_scenario`` with ``seed``, if not None, as the scenario's seed."""
    if isinstance(path_or_dict, dict):
        raw = copy.deepcopy(path_or_dict)
        source = "<dict>"
    else:
        source = str(path_or_dict)
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(
                [f"{source}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
        # ValueError: an integer beyond the digit limit, or bytes that are not
        # UTF-8; RecursionError: arrays or objects nested too deep.
        except (OSError, ValueError, RecursionError) as exc:
            raise ScenarioValidationError([f"{source}: {exc}"])
    if not isinstance(raw, dict):
        raise ScenarioValidationError([f"{source}: scenario must be a JSON object"])
    if seed is not None:
        raw["seed"] = seed

    problems = []
    preset = raw.get("preset")
    base = _DEFAULTS
    if preset is not None:
        if preset not in PRESETS:
            raise ScenarioValidationError(
                [f"unknown preset {preset!r}; available: {', '.join(PRESETS)}"])
        base = _deep_merge(_DEFAULTS, _PRESET_OVERRIDES[preset], problems)
        base["preset"] = preset
    user_paths = set()
    data = _deep_merge(base, raw, problems, provenance=user_paths)

    read = _tables_read(data)
    problems.extend(_validate(data, read))
    if problems:
        raise ScenarioValidationError(problems)

    assumed = tuple(sorted(path for path, key in _LEAVES if key.assumed
                           and path.split(".")[0] in read and path not in user_paths))
    return Scenario(data=data, assumed=assumed, source=source)


def _tables_read(data):
    """The top-level keys a run of ``data`` reads."""
    read = {"seed", "preset"}
    if data["link"]["enabled"]:
        read |= {"link", "controllers", "run", "outputs"}
    if data["comb"]["enabled"] or data["budget"]["enabled"]:
        read.add("comb")    # the budget's records run through the comb chain too
    if data["budget"]["enabled"]:
        read.add("budget")
    return read


def _passes(path, value, checks, problems):
    for predicate, phrase in checks:
        if not predicate(value):
            problems.append(f"{path} must be {phrase}, got {value!r}")
            return False
    return True


def _refusal(rule, *args):
    """The message of the InvalidInputError ``rule(*args)`` raises, or None."""
    try:
        rule(*args)
    except InvalidInputError as exc:
        return str(exc)
    return None


def _validate(data, read):
    problems = []
    # Every leaf of a table the run reads, and every enabled flag (they
    # decide what is read); a leaf that is not read is not valid input to
    # any cross-field check below.
    ok = {}
    for path, key in _LEAVES:
        parts = path.split(".")
        ok[path] = (parts[0] in read or parts[-1] == "enabled") and _passes(
            path, functools.reduce(operator.getitem, parts, data), key.checks, problems)
    if not any(data[s]["enabled"] for s in ("link", "comb", "budget")):
        problems.append("nothing to run: enable at least one of link, comb, budget "
                        "(or choose a preset)")

    # Each cross-field check runs when its own inputs are valid.
    run_c = data["run"]
    if ok["link.length_km"] and ok["link.delay_per_km_s"]:
        step = data["link"]["step_s"]
        one_way = data["link"]["length_km"] * data["link"]["delay_per_km_s"]
        if ok["link.step_s"] and _delay_steps(data["link"]) < 1:
            problems.append(
                f"link.step_s={step} too coarse to resolve the one-way delay {one_way:g} s")
        # Checked from the numbers alone: the servo's delay line would
        # otherwise be allocated (or refused by numpy) during the run.
        for dur_key in ("run.fullrate_duration_s", "run.decimated_duration_s"):
            duration = run_c[dur_key.split(".")[1]]
            if ok[dur_key] and not 2 * one_way < duration:
                problems.append(
                    f"round-trip delay 2 x link.length_km x link.delay_per_km_s = "
                    f"{2 * one_way:g} s must be shorter than {dur_key}={duration:g}")
    # The decimated model applies the servo's sensitivity, periodic in 1 / link.step_s.
    if ok["run.decimated_step_s"] and ok["link.step_s"] \
            and run_c["decimated_step_s"] < data["link"]["step_s"]:
        problems.append(
            f"run.decimated_step_s={run_c['decimated_step_s']:g} must not be finer "
            f"than the servo's link.step_s={data['link']['step_s']:g}")
    if ok["run.transient_discard_s"] and ok["run.fullrate_duration_s"] \
            and run_c["transient_discard_s"] >= run_c["fullrate_duration_s"]:
        problems.append(
            f"run.transient_discard_s={run_c['transient_discard_s']:g} must be shorter "
            f"than run.fullrate_duration_s={run_c['fullrate_duration_s']:g}")
    # Each Allan tau is a whole number of its record's samples: decimated
    # steps, or the 1 s counting gates of the full-rate chain.
    for tau_key, dur_key, tau0_name, tau0, tau0_ok in (
            ("outputs.adev_taus_s", "run.decimated_duration_s", "run.decimated_step_s",
             run_c["decimated_step_s"], ok["run.decimated_step_s"]),
            ("outputs.fullrate_taus_s", "run.fullrate_duration_s", "the counting gate",
             _GATE_S, True)):
        if not ok[tau_key]:
            continue
        taus = data["outputs"][tau_key.split(".")[1]]
        duration = run_c[dur_key.split(".")[1]]
        if ok[dur_key] and duration < 4 * max(taus):
            problems.append(
                f"{dur_key}={duration:g} s is shorter than 4 x the largest "
                f"requested tau in {tau_key} ({max(taus):g} s)")
        off_grid = [t for t in taus if _refusal(_tau_multiple, t, tau0)] if tau0_ok else []
        if off_grid:
            problems.append(f"{tau_key} entries {off_grid} are not integer multiples "
                            f"of {tau0_name} ({tau0:g} s)")

    # Each sample cap is checked when its inputs are valid.
    link_c, comb_c, budget_c = data["link"], data["comb"], data["budget"]
    counts = []
    servo_work = math.inf
    if ok["run.fullrate_duration_s"] and ok["link.step_s"]:
        samples = run_c["fullrate_duration_s"] / link_c["step_s"]
        counts.append(("full-rate samples (run.fullrate_duration_s / link.step_s)",
                       samples, _MAX_FULLRATE_SAMPLES))
        # Only for a run the checks above admit: the delay then has fewer
        # steps than half the samples.
        if samples <= _MAX_FULLRATE_SAMPLES and ok["link.length_km"] \
                and ok["link.delay_per_km_s"]:
            one_way = link_c["length_km"] * link_c["delay_per_km_s"]
            if 2 * one_way < run_c["fullrate_duration_s"]:
                servo_work = samples * (2 * _delay_steps(link_c) + 2)
                counts.append(("servo work (full-rate samples x (2 x one-way delay steps + 2))",
                               servo_work, _MAX_SERVO_WORK))
        # What the counting chain and Welch need of the settled record, in
        # samples as _run_fullrate counts them.
        if samples <= _MAX_FULLRATE_SAMPLES and ok["run.transient_discard_s"] \
                and ok["outputs.psd_segment_s"] \
                and run_c["transient_discard_s"] < run_c["fullrate_duration_s"]:
            step = link_c["step_s"]
            settled = round(samples) - round(run_c["transient_discard_s"] / step)
            record = ("the settled record run.fullrate_duration_s - run.transient_discard_s "
                      f"= {settled * step:g} s")
            refusal = _refusal(_decimation, _GATE_S, step, settled)
            if refusal:
                problems.append(f"link.step_s={step:g} cannot count the {_GATE_S:g} s "
                                f"gates of {record}: {refusal}")
            segment_s = data["outputs"]["psd_segment_s"]
            if not (math.isfinite(segment_s / step) and 2 <= round(segment_s / step) <= settled):
                problems.append(f"outputs.psd_segment_s={segment_s:g} must be at least "
                                f"2 samples of link.step_s and fit in {record}")
            elif ok["outputs.psd_overlap"]:
                segment = round(segment_s / step)
                counts.append(("Welch work (PSD segments x outputs.psd_segment_s in samples)",
                               welch_segments(settled, segment, data["outputs"]["psd_overlap"])
                               * segment, _MAX_WELCH_WORK))
    if ok["run.decimated_duration_s"] and ok["run.decimated_step_s"]:
        counts.append(("decimated samples (run.decimated_duration_s / run.decimated_step_s + 1)",
                       run_c["decimated_duration_s"] / run_c["decimated_step_s"] + 1,
                       _MAX_DECIMATED_SAMPLES))
    if ok["comb.n_gates"] and comb_c["enabled"]:
        counts.append(("comb.n_gates", comb_c["n_gates"], _MAX_COMB_GATES))
    if ok["budget.records"] and ok["budget.record_gates"]:
        counts.append(("budget gates (budget.records x budget.record_gates)",
                       budget_c["records"] * budget_c["record_gates"], _MAX_BUDGET_GATES))
    for what, count, cap in counts:
        if not count <= cap:
            shown = f"{count:g}" if isinstance(count, float) else count
            problems.append(f"{what} = {shown} exceeds the cap of {cap}")

    # Each closed loop's stability, once the servo-work cap bounds the delay
    # steps that the count's cost grows with.
    ctl, step = data["controllers"], link_c["step_s"]
    servo_ok = all(ok[f"controllers.{key}"]
                   for key in ("topology", "unity_gain_hz", "integrator_corner_hz"))
    if servo_ok and ctl["topology"] != "off" and servo_work <= _MAX_SERVO_WORK \
            and (m := _delay_steps(link_c)) >= 1:
        servo = ControllerConfig(ctl["unity_gain_hz"], ctl["integrator_corner_hz"])
        for name, key in (("near-end", "rf_shifter_bandwidth_hz"),
                          ("far-end", "piezo_bandwidth_hz")):
            if poles := ok[f"controllers.{key}"] and _unstable_poles(servo, ctl[key], step, m):
                problems.append(
                    f"the {name} loop is unstable, with {poles} closed-loop pole(s) on or outside "
                    f"the unit circle, at controllers.unity_gain_hz={ctl['unity_gain_hz']:g}, "
                    f"integrator_corner_hz={ctl['integrator_corner_hz']:g}, {key}={ctl[key]:g} "
                    f"and {m} one-way delay steps of link.step_s={step:g}")

    c = data["comb"]
    if ok["comb.filter_bw_hz"] and ok["comb.if_target_hz"] \
            and c["filter_bw_hz"] >= c["if_target_hz"]:
        problems.append(f"comb.filter_bw_hz={c['filter_bw_hz']:g} must be below "
                        f"comb.if_target_hz={c['if_target_hz']:g}")
    if ok["budget.contributions"]:
        for i, entry in enumerate(data["budget"]["contributions"]):
            for name, checks in (("label", _LABEL), ("sigma_at_1s", _DEVIATION)):
                _passes(f"budget.contributions[{i}].{name}", entry[name], checks, problems)
    return problems


# ----------------------------------------------------------------------
# Link realization helpers


def _delay_steps(link):
    """The one-way fiber delay in whole steps of ``link.step_s``: the servo's
    m, and the delay of each fiber pass.  Load refuses a link where it is 0,
    or inf (a step count that overflows a float)."""
    steps = link["length_km"] * link["delay_per_km_s"] / link["step_s"]
    return round(steps) if math.isfinite(steps) else math.inf


def _chain_enbw_hz(measurement_bw_hz):
    # Equivalent noise bandwidth of the single-pole counting filter.
    return 0.5 * np.pi * measurement_bw_hz


def _sub_seed(seed, *tags):
    return int(component_rng(seed, *tags).integers(2 ** 63))


def _fiber_parts(noise, seed, tag, n, dt, white_sigma, fibers=2):
    """A model's per-fiber noise parts by name, each ``(ratio, draw)`` for
    ``fiber_pair``: ``draw(j, start, stop, out)`` writes samples ``start``
    to ``stop - 1`` of realization j into ``out``.  The diurnal is common
    (ratio 0), walk FM is left out at h = 0, and white PM has sources for
    ``fibers`` fibers.  Each stream is tagged ``tag``-part and j."""
    ratio = noise["differential_ratio"]
    spec = BurstSpec(noise["burst_rate_per_s"], noise["burst_amp_median_s"],
                     noise["burst_amp_sigma"], noise["burst_duration_s"])
    white = [component_rng(seed, f"{tag}-white", j) for j in range(1 + fibers)]
    bursts = [BurstTrain(spec, n, dt, _sub_seed(seed, f"{tag}-bursts", j)) for j in range(3)]
    parts = {
        "white": (ratio, lambda j, start, stop, out: np.multiply(
            white[j].standard_normal(out=out), white_sigma, out=out)),
        "diurnal": (0.0, lambda j, start, stop, out: diurnal_samples(
            noise["diurnal_amplitude_s"], noise["diurnal_period_s"],
            noise["diurnal_phase_rad"], start, stop, dt, out=out)),
        "bursts": (ratio, lambda j, start, stop, out: bursts[j].samples(start, stop, out=out)),
    }
    if noise["walk_fm_h"] > 0:
        walks = [WalkPhase(noise["walk_fm_h"], dt, _sub_seed(seed, f"{tag}-walk", j))
                 for j in range(3)]
        parts["walk"] = (ratio, lambda j, start, stop, out: walks[j].samples(stop - start, out))
    return parts


def _sum_parts(parts, names, start, stop, fibers, scratch):
    """Write the named parts' sum, in their order (float addition is not
    associative), into ``fibers`` in place: later parts are mixed into
    ``scratch``'s first records and added, and ``scratch[-1]`` takes draws."""
    (ratio, draw), *rest = [parts[name] for name in names if name in parts]
    fiber_pair(ratio, lambda j: draw(j, start, stop, scratch[-1]), out=fibers)
    for ratio, draw in rest:
        pair = fiber_pair(ratio, lambda j: draw(j, start, stop, scratch[-1]),
                          out=scratch[:len(fibers)])
        for x, p in zip(fibers, pair):
            x += p


def _mapped(shape):
    """A float array of ``shape`` in pages mapped from the system, not taken
    from the malloc heap, so they go back when the array and its last view
    are freed.  glibc raises its mmap threshold to the size of each large
    block freed, so a later block of a few MB comes from the heap, and once
    freed it stays resident: as heap blocks the full-rate slots left a hole
    that raised longterm_10d's peak RSS by 3 MB, and a warm run's released
    open record was still resident when the next run's suppression ran."""
    import mmap
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(np.atleast_1d(shape))),
                         dtype=float).reshape(shape)


def _run_fullrate(scn, seed, report):
    """The full-rate link: noise, both servo loops, the counting chain and
    Welch, run together over consecutive chunks of ``_CHUNK`` samples.  A
    worker thread writes the coming chunks' noise into two slots, in turn,
    while this thread runs the current chunk."""
    from concurrent.futures import ThreadPoolExecutor

    link = scn["link"]
    runc = scn["run"]
    dt = link["step_s"]
    n = int(round(runc["fullrate_duration_s"] / dt))
    fs = 1.0 / dt

    # Per-fiber noise: white PM (flat S_x) + common diurnal + walk + bursts.
    parts = _fiber_parts(link["noise"], seed, "fullrate", n, dt,
                         np.sqrt(link["noise"]["white_pm_sx_s2_per_hz"] * fs / 2.0))

    detector = DetectorConfig(link["detector"]["floor_rad_per_rthz"],
                              link["detector"]["measurement_bw_hz"])
    f_ret = Carrier(link["carrier_return_hz"])
    f_probe = Carrier(link["carrier_probe_hz"])
    det = [component_rng(seed, "det", tag) for tag in (1, 2, "probe")]

    # Two slots of the five records, used in turn: chunk i is written into
    # slot i % 2.  The servo copies its inputs and no output keeps a view of
    # a slot, so once chunk i has been through the servo its slot takes
    # chunk i + 2, which the worker draws while this thread finishes chunk
    # i and runs chunk i + 1.  The slots are mapped, so their pages go back
    # when the run ends.
    slots = _mapped((2, 5, min(_CHUNK, n)))
    starts = range(0, n, _CHUNK)

    def fill(i):
        """Chunk i's noise records n1, n2, d1, d2 and dp, written into slot
        i % 2 with nothing chunk-sized allocated.  d1, d2 and dp hold the
        draws and the later parts' pairs until the detector noise is drawn
        into them last."""
        start, stop = starts[i], min(starts[i] + _CHUNK, n)
        k = stop - start
        n1, n2, d1, d2, dp = (r[:k] for r in slots[i % 2])
        _sum_parts(parts, ("white", "diurnal", "walk", "bursts"), start, stop,
                   (n1, n2), (d1, d2, dp))
        for carrier, rng, x in zip((f_ret, f_ret, f_probe), det, (d1, d2, dp)):
            detector_noise(detector, carrier, k, dt, rng, out=x)
        return n1, n2, d1, d2, dp

    cfg = _loop_config(scn, _delay_steps(link))
    skip = int(round(runc["transient_discard_s"] / dt))
    labels = {"closed_rt": "closed_rt", "open_rt": "open_probe_rt"}
    chains = {name: CountingChain(n - skip, dt, detector.measurement_bw_hz, _GATE_S)
              for name in labels}
    welch = WelchAccumulator(n - skip, dt, round(scn["outputs"]["psd_segment_s"] / dt),
                             overlap=scn["outputs"]["psd_overlap"])

    state = None
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = deque(worker.submit(fill, i) for i in range(min(2, len(starts))))
        for i, start in enumerate(starts):
            n1, n2, d1, d2, dp = ahead.popleft().result()
            result = run_closed_loop(cfg, n1, n2, d1, d2, probe_det=dp, state=state)
            if i + 2 < len(starts):
                ahead.append(worker.submit(fill, i + 2))
            state, warnings = result.state, result.warnings
            records = (result.round_trip, result.probe_rt)
            del result      # the applied corrections and their delay lines
            settled = max(skip - start, 0)
            if settled < n1.size:
                for name, rec in zip(labels, records):
                    chains[name].push(rec[settled:])
                # Once counted, the records go but the round trip, which
                # Welch takes in radians in its own memory: no other servo
                # record is live at a segment's transform.
                round_trip = records[0][settled:]
                del records, rec
                welch.add(f_ret.radians(round_trip, out=round_trip))
    report.warnings.extend(warnings)

    taus = scn["outputs"]["fullrate_taus_s"]
    counted = {name: chain.series(labels[name]) for name, chain in chains.items()}
    curves = {name: allan_deviation_phase(series, taus, estimator="overlapping")
              for name, series in counted.items()}
    return {"curves": curves, "counted": counted, "psd_rt": welch.result()}


def _loop_config(scn, m):
    ctl = scn["controllers"]
    controller = ControllerConfig(unity_gain_hz=ctl["unity_gain_hz"],
                                  integrator_corner_hz=ctl["integrator_corner_hz"])
    return LinkLoopConfig(
        dt=scn["link"]["step_s"], m1=m, m2=m,
        controller1=controller, controller2=controller,
        rf_shifter=ActuatorState(ctl["rf_shifter_range_s"], ctl["rf_shifter_bandwidth_hz"]),
        piezo=ActuatorState(ctl["piezo_range_s"], ctl["piezo_bandwidth_hz"]),
        thermal=ActuatorState(ctl["thermal_range_s"], ctl["thermal_bandwidth_hz"]),
        crossover_hz=ctl["crossover_hz"], topology=ctl["topology"],
    )


def _run_decimated(scn, seed, report):
    """Day-scale model: slow perturbations through the loop suppression
    function, plus the measurement-band white noise each 1 s sample carries.

    The open record's curve is taken as soon as the record is drawn, and the
    record is then released, unless ``outputs.write_decimated_series`` keeps
    it for its CSV: the suppression, where the run's resident peak falls,
    then finds only the padded slow sum live.  The closed record is built in
    place over the suppressed sum."""
    link = scn["link"]
    ctl = scn["controllers"]
    step = scn["run"]["decimated_step_s"]
    # Fence-post: a record spanning the full duration needs one extra gate
    # boundary, so a 2-day run carries a 1-day Allan pair.
    n = int(round(scn["run"]["decimated_duration_s"] / step)) + 1
    enbw = _chain_enbw_hz(link["detector"]["measurement_bw_hz"])

    # The slow parts (bursts, diurnal, walk) and the white content of each
    # 1 s sample make the open record.  The closed loop takes the two fibers'
    # slow parts as one sum, zero-padded to a 5-smooth length, where the
    # suppression's transforms are fast (864,001 = 31*47*593 points take 6x
    # as long as 874,800).  With no loop closed the closed record is the two
    # fibers' round trip, and only then is fiber 2's white part drawn.
    off = ctl["topology"] == "off"
    parts = _fiber_parts(link["noise"], seed, "dec", n, step,
                         np.sqrt(link["noise"]["white_pm_sx_s2_per_hz"] * enbw), 1 + off)
    # Chunks of the slow fibers, of two pairs (then the whites) and a draw.
    chunks = _mapped((5, min(_CHUNK, n)))
    opened = _mapped(n)
    slow = np.zeros(n if off else _fast_len(n))
    slow_peak = 0.0
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        slow1, slow2, white1, white2, u = (r[:stop - start] for r in chunks)
        _sum_parts(parts, ("bursts", "diurnal", "walk"), start, stop,
                   (slow1, slow2), (white1, white2, u))
        np.add(slow1, slow2, out=slow[start:stop])
        _sum_parts(parts, ("white",), start, stop, (white1, white2)[:1 + off], (u,))
        chunk = np.add(slow1, white1, out=opened[start:stop])
        if off:
            slow[start:stop] += np.add(white1, white2, out=white2)
        chunk *= 2.0
        slow_peak = max(slow_peak, float(_peak(chunk)) / 2.0)
    del chunks, slow1, slow2, white1, white2, u     # before the open record's Allan stage
    taus = scn["outputs"]["adev_taus_s"]
    open_rt = PhaseSeries(opened, step, label="open_rt_decimated")
    curves = {"open_rt": allan_deviation_phase(open_rt, taus, estimator="overlapping")}
    series = {"open_rt": open_rt} if scn["outputs"]["write_decimated_series"] else {}
    del opened, chunk, open_rt     # the open record's pages go back here

    closed = slow[:n]
    if not off:
        # Closed loop: slow content through the near-end servo's sensitivity,
        # which is linear, so the round trip's two fibers go through it as
        # one sum; in-band detector noise is written onto the signal by each
        # servo.  The closed record is the first n samples of that circular
        # map, whose inverse transform writes over the slow sum (the series
        # gets a view, since it marks its own array read-only).  The written
        # detector noise and the closed floor are added onto it a chunk at a
        # time, in one chunk buffer.
        loop = _loop_config(scn, _delay_steps(link))
        loop_suppression(PhaseSeries(slow[:], step), loop.controller1,
                         loop.rf_shifter.bandwidth_hz, loop.dt, loop.m1, out=slow)
        s_det_x = (link["detector"]["floor_rad_per_rthz"] ** 2
                   / (2.0 * np.pi * link["carrier_return_hz"]) ** 2)
        det_sigma = np.sqrt(2.0 * (s_det_x / 4.0) * enbw)        # written round trip
        det = component_rng(seed, "dec-det")
        floor = WalkPhase(ctl["closed_floor_walk_fm_h"], step, _sub_seed(
            seed, "dec-closed-floor")) if ctl["closed_floor_walk_fm_h"] > 0 else None
        buffer = np.empty(min(_CHUNK, n))
        for start in range(0, n, _CHUNK):
            part = closed[start:start + _CHUNK]
            drawn = det.standard_normal(out=buffer[:part.size])
            drawn *= det_sigma
            part += drawn
            if floor is not None:
                part += floor.samples(part.size, out=drawn)
    series["closed_rt"] = PhaseSeries(closed, step, label="closed_rt_decimated")

    # Thermal authority check for the slow correction the loops must absorb.
    if not off and slow_peak > ctl["thermal_range_s"]:
        report.warnings.append(
            f"slow correction {slow_peak:g} s exceeds thermal range "
            f"{ctl['thermal_range_s']:g} s")

    curves["closed_rt"] = allan_deviation_phase(series["closed_rt"], taus,
                                                estimator="overlapping")
    return {"curves": curves, "series": series}


def _reference_model_curves(scn):
    """Flywheel (CSO) and fountain comparison curves: the expected overlapping
    Allan deviation of each clock's calibrated law (NIST SP 1065), with the
    taus, omitted taus and pair counts of ``allan_deviation_phase`` on the
    decimated model's n samples.  CSO: white PM, 3 sigma_x**2 / tau**2, plus
    stationary flicker FM, 2 ln2 h.  Fountain: white FM, h0 / (2 tau)."""
    step = scn["run"]["decimated_step_s"]
    n = int(round(scn["run"]["decimated_duration_s"] / step)) + 1
    taus, m = _tau_multiples(scn["outputs"]["adev_taus_s"], step)
    fits = n - 2 * m >= 1
    tau, n_pairs = m[fits] * step, n - 2 * m[fits]
    omitted = tuple(float(t) for t in taus[~fits])
    note = ("expected sigma of the clock's law, not a simulated record; n_pairs = "
            "n - 2 tau/tau0, the overlapping estimator's pairs on the decimated "
            f"model's n = {n} phase samples at tau0 = {step:g} s")
    sigma_x, h_flicker = 0.9e-14 / np.sqrt(3.0), (1.5e-15) ** 2 / (2.0 * np.log(2.0))
    avar = {"cso_reference": 3.0 * sigma_x ** 2 / tau ** 2 + 2.0 * np.log(2.0) * h_flicker,
            "fountain": white_fm_level_for(1.6e-14) / (2.0 * tau)}
    return {name: AdevCurve(tau, np.sqrt(v), n_pairs, "overlapping", notes=(note,),
                            omitted_taus=omitted) for name, v in avar.items()}


def _white_fm_series(sigma_1s, n, tau0, rng) -> FracFreqSeries:
    # At 1 s sampling, white FM with sigma_y(1 s) = target is iid normal.
    sigma = sigma_1s / np.sqrt(tau0)
    return FracFreqSeries(rng.standard_normal(n) * sigma, tau0)


def _comb_objects(scn):
    c = scn["comb"]
    params = CombParams(q=c["q"], delta_hz=c["delta_hz"], sign=c["sign"],
                        f_rep_nominal_hz=c["f_rep_nominal_hz"])
    cfg = CounterChainConfig(lo_freq_hz=c["lo_freq_hz"],
                             if_target_hz=c["if_target_hz"],
                             final_shift_target_hz=c["final_shift_target_hz"],
                             filter_bw_hz=c["filter_bw_hz"], gate_s=c["gate_s"])
    return params, cfg


def _run_comb(scn, seed, report):
    c = scn["comb"]
    params, cfg = _comb_objects(scn)
    n = c["n_gates"]
    gate = c["gate_s"]

    # Each input goes once its last reader is done: y_link after its curve,
    # so the chain runs beside f_rep and the reference alone.
    taus = [t for t in (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
            if 4 * t <= n * gate]
    y_link = _white_fm_series(c["link_sigma_1s"], n, gate,
                              component_rng(seed, "comb-link"))
    y_ref = _white_fm_series(c["reference_sigma_1s"], n, gate,
                             component_rng(seed, "comb-reference"))
    reference_at_lpl = FracFreqSeries(y_ref.samples + y_link.samples, gate)
    del y_ref
    link_residual = allan_deviation(y_link, taus, estimator="overlapping")
    del y_link
    f_rep = rep_rate_lock(_white_fm_series(c["optical_sigma_1s"], n, gate,
                                           component_rng(seed, "comb-optical")), params)
    record = count_chain(f_rep, reference_at_lpl, cfg, params)
    del reference_at_lpl, f_rep

    recovered = allan_deviation(record.optical_fractional(), taus,
                                estimator="overlapping")
    return {"record": record, "curves": {"comb_recovered": recovered,
                                         "link_residual": link_residual}}


def _run_budget(scn, seed, report):
    b = scn["budget"]
    contributions = [BudgetEntry(e["label"], e["sigma_at_1s"])
                     for e in b["contributions"]]
    budget = stability_budget(b["measured_sigma_1s"], contributions)
    if budget.clamped:
        report.warnings.append("stability budget clamped at zero "
                               "(contributions exceed the measured deviation)")

    params, cfg = _comb_objects(scn)
    f_opt = float(params.optical_nominal_hz)
    rng = component_rng(seed, "budget-records")
    records = []
    for _ in range(b["records"]):
        true_offset = b["record_mean_offset_hz"] + b["record_sigma_hz"] * rng.standard_normal()
        y = _white_fm_series(scn["comb"]["optical_sigma_1s"], b["record_gates"],
                             cfg.gate_s, rng)
        y_opt = FracFreqSeries(y.samples + true_offset / f_opt, cfg.gate_s)
        f_rep = rep_rate_lock(y_opt, params)
        ref = FracFreqSeries(np.zeros(b["record_gates"]), cfg.gate_s)
        records.append(count_chain(f_rep, ref, cfg, params))
    nu_ref = params.optical_nominal_hz + as_fraction(b["nu_ref_offset_hz"])
    mean_offset, sigma = absolute_freq_estimate(records, nu_ref)
    return {"budget": budget, "records": records,
            "estimate": (mean_offset, sigma)}


def run(scenario: Scenario, out_dir=None) -> RunReport:
    """Execute a scenario: noise generation, link/loop simulation, comb chain
    and analysis, writing plot-ready CSVs into ``out_dir``.

    The scenario's ``seed`` is the run's seed (``fiberlink run --seed``
    fills it at load).  Deterministic for a given scenario: repeated runs
    produce byte-identical CSVs.  On loop divergence the partial manifest is
    written before the error propagates.
    """
    t0 = time.perf_counter()
    out_dir = resolve_out_dir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    run_seed = scenario.seed()
    report = RunReport(scenario_echo=scenario.data, assumed=scenario.assumed,
                       seed=run_seed)

    def emit(name, writer, *args, **kwargs):
        path = os.path.join(out_dir, name)
        writer(path, *args, seed=run_seed, **kwargs)
        report.manifest.append(name)

    try:
        if scenario["link"]["enabled"]:
            full = _run_fullrate(scenario, run_seed, report)
            report.results["fullrate"] = full
            emit("closed_loop_fullrate.csv", fio.write_adev_csv,
                 full["curves"]["closed_rt"])
            emit("open_loop_fullrate.csv", fio.write_adev_csv,
                 full["curves"]["open_rt"])
            emit("round_trip_psd.csv", fio.write_psd_csv, full["psd_rt"],
                 carrier_hz=scenario["link"]["carrier_return_hz"])

            dec = _run_decimated(scenario, run_seed, report)
            report.results["decimated"] = dec
            emit("closed_loop.csv", fio.write_adev_csv, dec["curves"]["closed_rt"])
            emit("open_loop.csv", fio.write_adev_csv, dec["curves"]["open_rt"])
            if scenario["outputs"]["write_decimated_series"]:
                emit("closed_rt_series.csv", fio.write_phase_csv,
                     dec["series"]["closed_rt"])
                emit("open_rt_series.csv", fio.write_phase_csv,
                     dec["series"]["open_rt"])

            refs = _reference_model_curves(scenario)
            report.results["references"] = refs
            emit("cso_reference.csv", fio.write_adev_csv, refs["cso_reference"])
            emit("fountain.csv", fio.write_adev_csv, refs["fountain"])

        if scenario["comb"]["enabled"]:
            comb = _run_comb(scenario, run_seed, report)
            report.results["comb"] = comb
            emit("comb_adev.csv", fio.write_adev_csv, comb["curves"]["comb_recovered"])
            emit("link_residual_adev.csv", fio.write_adev_csv,
                 comb["curves"]["link_residual"])
            emit("comb_gates.csv", fio.write_measurement_csv, comb["record"])

        if scenario["budget"]["enabled"]:
            bud = _run_budget(scenario, run_seed, report)
            report.results["budget"] = bud
            emit("budget.csv", _write_budget_csv, bud)
            emit("freq_estimate.csv", _write_estimate_csv, bud)
    except DivergenceError as exc:
        report.error = str(exc)
        report.wall_time_s = time.perf_counter() - t0
        report.write(out_dir)
        raise
    report.wall_time_s = time.perf_counter() - t0
    report.write(out_dir)
    return report


def _write_budget_csv(path, bud, seed=None):
    budget = bud["budget"]
    lines = fio.metadata_lines(seed)
    lines.append("label,sigma_at_1s")
    lines.append(f"measured,{fio._fmt(budget.measured_at_1s)}")
    for e in budget.contributions:
        lines.append(f"{e.label},{fio._fmt(e.sigma_at_1s)}")
    lines.append(f"residual_upper_bound,{fio._fmt(budget.residual_upper_bound)}")
    lines.append(f"clamped,{int(budget.clamped)}")
    fio.write_lines(path, lines)


def _write_estimate_csv(path, bud, seed=None):
    mean_offset, sigma = bud["estimate"]
    lines = fio.metadata_lines(seed)
    lines.append("quantity,value_hz")
    lines.append(f"mean_offset,{fio._fmt(mean_offset)}")
    lines.append(f"sigma_1,{fio._fmt(sigma)}")
    for i, rec in enumerate(bud["records"]):
        lines.append(f"record_{i}_mean_offset,{fio._fmt(rec.mean_optical_offset_hz())}")
    fio.write_lines(path, lines)


def resolve_out_dir(out_dir=None):
    if out_dir is not None:
        return str(out_dir)
    return os.environ.get("FIBERLINK_OUT", os.path.join(os.getcwd(), "fiberlink_out"))


@dataclass(frozen=True)
class CurveComparison:
    taus: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    max_ratio: float


def compare_curves(a: AdevCurve, b: AdevCurve) -> CurveComparison:
    """Per-tau sigma ratios a/b on the overlapping tau grid."""
    taus, ratios = [], []
    for i, tau in enumerate(a.taus):
        j = np.nonzero(np.isclose(b.taus, tau, rtol=1e-9, atol=0.0))[0]
        if j.size != 1:
            continue
        sb = b.sigmas[j[0]]
        sa = a.sigmas[i]
        if sb == 0.0 and sa == 0.0:
            ratios.append(1.0)
        elif sb == 0.0:
            ratios.append(np.inf)
        else:
            ratios.append(float(sa / sb))
        taus.append(float(tau))
    if not taus:
        raise InvalidInputError("curves share no common tau points")
    ratios = np.array(ratios)
    return CurveComparison(np.array(taus), ratios,
                           float(np.min(ratios)), float(np.max(ratios)))
