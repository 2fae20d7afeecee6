"""The two fiber compensation controllers and loop-stability analysis.

Both loops share one structure: the measured round-trip error is halved
(conjugation: the perturbation splits evenly between the two passes under
reciprocity) and fed to a proportional-plus-integral filter whose output is
accumulated into the applied correction.  In continuous time the open-loop
transfer is L(s) = (kp / s + ki / s**2) * exp(-s * tau_rt), with
kp = 2 pi f_unity and ki = kp * 2 pi f_corner.  The round-trip delay tau_rt
enters as a transport delay; with a pure integrator the loop turns unstable
at 1 / (4 tau_rt), which is what limits the usable bandwidth, and
``critical_frequency`` is that closed form.  A simulated loop is a discrete
recurrence (``_loop_filter_polys``: sampling at dt, a 2M-step delay and the
actuator's first-order lag), stable exactly when every root of its
denominator polynomial in z^-1 lies inside the unit circle.  The count of
roots on or outside it (``_unstable_poles``; a scenario is refused for each)
and the loop's sensitivity (``loop_sensitivity``) read one product-free form
of the loop on the unit circle, ``_servo_on_circle``.

The near-end loop corrects fiber 1 with an RF phase shift on the
transmitted carrier, so only the served carrier is corrected.  The far-end
loop strains fiber 2 itself (fast piezo stretcher plus slow thermal spool),
correcting every carrier on the fiber; error content below the crossover
frequency is offloaded from the piezo to the thermal spool.

``run_closed_loop`` simulates both loops on full-rate records with one of
two engines walking the same servo recurrence.  The linear engine
("lfilter") evaluates it as one IIR filter per loop; it reports, but does
not enforce, actuator saturation, and it has no offload.  It runs a long
record as consecutive chunks, carrying a ``LoopState`` (the filter states
and the last 2 max(m1, m2) samples of each delayed record) from one chunk
to the next, so memory does not grow with the record and the outputs are
those of one pass over the whole record, byte for byte; within a chunk,
every delayed term is a view of one ``[history | chunk]`` line per record.
The stepped engine ("stepped") walks the recurrence per sample over a whole
record and clamps each actuator at its range, with anti-windup and the
piezo-to-thermal offload; it is the nonlinear reference.  Both engines apply
one divergence rule (``_check_divergence``) to their applied corrections.
The run topology (``RUN_TOPOLOGIES``) says what the far-end
loop sees: "series" feeds it the near-end loop's corrected arrival,
"independent" only fiber 2's own round trip, and "off" opens both loops.
``loop_suppression`` is the decimated-time model: the simulated servo's
discrete sensitivity applied to slow records in the frequency domain, block by
block of bins, an exact circular map at its input's length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .link import ActuatorState, _lfilter, actuator_alpha
from .series import PhaseSeries

RUN_TOPOLOGIES = ("series", "independent", "off")
DIVERGENCE_FLOOR_S = 1e-6     # floor of the divergence limit on a correction
# Most bins per block of ``loop_suppression``'s sensitivity work arrays.
_SENSITIVITY_BLOCK = 2 ** 13
_ARC_STEPS = 2 ** 12          # most grid steps per arc of ``_unstable_poles``


@dataclass(frozen=True)
class ControllerConfig:
    unity_gain_hz: float = 300.0
    integrator_corner_hz: float = 30.0
    crossover_hz: float = 0.1          # piezo-to-thermal offload (far-end loop)

    def __post_init__(self):
        if not self.unity_gain_hz > 0:
            raise InvalidInputError("unity-gain target must be positive")
        for name in ("integrator_corner_hz", "crossover_hz"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")

    def gains(self):
        """(kp, ki) in 1/s and 1/s^2, from the frequency targets."""
        kp = 2.0 * np.pi * self.unity_gain_hz
        return kp, kp * 2.0 * np.pi * self.integrator_corner_hz


def critical_frequency(round_trip_delay_s) -> float:
    """Instability boundary of a pure-integrator loop under transport delay.

    The integrator contributes -90 deg; the delay adds -360 deg * f * delay;
    the sum reaches -180 deg at f = 1 / (4 * delay).
    """
    if not round_trip_delay_s > 0:
        raise InvalidInputError("round-trip delay must be positive")
    return 1.0 / (4.0 * round_trip_delay_s)


# ----------------------------------------------------------------------
# Full link simulation


@dataclass(frozen=True)
class LinkLoopConfig:
    """Geometry, controllers and actuators for a closed-loop link run."""
    dt: float
    m1: int                       # one-way delay steps, fiber 1
    m2: int                       # one-way delay steps, fiber 2
    controller1: ControllerConfig
    controller2: ControllerConfig
    rf_shifter: ActuatorState
    piezo: ActuatorState
    thermal: ActuatorState
    topology: str = "series"

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        if self.m1 < 1 or self.m2 < 1:
            raise InvalidInputError("loop delays must be at least one step")
        if self.topology not in RUN_TOPOLOGIES:
            raise InvalidInputError(f"run topology must be one of {RUN_TOPOLOGIES}")


@dataclass(frozen=True)
class LoopState:
    """What the linear engine carries from one chunk of a run to the next.

    ``history`` holds the last ``2 * max(m1, m2)`` samples of the records
    the delayed terms read; ``zi`` the two loop filters' states.
    """
    start: int                    # run index of the next chunk's first sample
    input_peak: float             # largest |input| of the run so far
    history: dict
    zi: tuple
    beyond_range: tuple = (False, False)   # rf shifter, optical actuators


@dataclass(frozen=True)
class LoopRunResult:
    """Full-rate outputs of a closed-loop run (phase-time, seconds).

    ``state`` continues the run with the next chunk (linear engine only).
    """
    dt: float
    one_way: np.ndarray           # corrected arrival at the far end
    round_trip: np.ndarray        # evaluation comparison after both fibers
    probe_rt: np.ndarray          # uncorrected round-trip probe (fiber 1)
    c1_applied: np.ndarray
    a2_applied: np.ndarray
    warnings: tuple = ()
    state: LoopState | None = None


def _loop_terms(cfg: ControllerConfig, actuator_bw_hz, dt):
    """The discrete servo's (b0, b1) and actuator lag: its denominator is
    (1 - z^-1)^2 (1 - lag z^-1) + z^-2M (b0 + b1 z^-1).

    Controller: pe_k = u_k - app_{k-2M};  I_k = I_{k-1} + dt pe_k;
    cmd_k = cmd_{k-1} + dt (kp pe_k + ki I_k);  app = first-order lag of cmd.
    """
    kp, ki = cfg.gains()
    alpha = actuator_alpha(actuator_bw_hz, dt)
    return np.array([alpha * dt * (kp + ki * dt), -alpha * dt * kp]), 1.0 - alpha


def _loop_filter_polys(cfg: ControllerConfig, actuator_bw_hz, dt, delay_steps):
    """(b, a) of applied-correction vs -(w/2) for the discrete servo."""
    b, lag = _loop_terms(cfg, actuator_bw_hz, dt)
    d = np.convolve([1.0, -2.0, 1.0], [1.0, -lag])       # (1 - z^-1)^2 (1 - lag z^-1)
    order = max(d.size, 2 * delay_steps + 2)
    a = np.zeros(order)
    a[: d.size] = d
    a[2 * delay_steps] += b[0]
    a[2 * delay_steps + 1] += b[1]
    return b, a


def _servo_on_circle(half, cfg: ControllerConfig, actuator_bw_hz, dt, delay_steps,
                     reduced=False):
    """d and a of the servo ``_loop_filter_polys`` builds at w = z^-1 =
    exp(-2j half): d = (1 - w)^2 (1 - lag w), a = d + g w^2M - b1 (1 - w) w^2M
    with g = b0 + b1.  As 1 - w = 2 sin(half) exp(j (pi/2 - half)), a term
    c (1 - w)^k w^n is the real c (2 sin half)^k times the phasor exp(j t),
    t = k pi/2 - (k + 2n) half, made as cos t + j sin t (the bits of complex
    ``np.exp(1j * t)``, in two thirds of its time): nothing cancels at low
    frequency, and no complex product is formed, whose rounding numpy varies
    with the SIMD level and the array's length.  ``reduced`` (for g = 0 only)
    lowers each k by one: d / (1 - w) and a / (1 - w), -b1 at w = 1."""
    b, lag = _loop_terms(cfg, actuator_bw_hz, dt)
    s = 2.0 * np.sin(half)

    def term(c, k, n):
        k -= int(reduced)
        angle = k * np.pi / 2 - (k + 2 * n) * half
        amp, z = c * s ** k, np.empty(half.shape, complex)
        np.multiply(np.cos(angle), amp, out=z.real)
        np.multiply(np.sin(angle), amp, out=z.imag)
        return z

    d = term(1.0, 2, 0) + term(-lag, 2, 1)
    a = d + term(-b[1], 1, 2 * delay_steps)
    if not reduced:
        a += term(b[0] + b[1], 0, 2 * delay_steps)
    return d, a


def _unstable_poles(cfg: ControllerConfig, actuator_bw_hz, dt, delay_steps) -> int:
    """How many poles of the servo ``_loop_filter_polys`` builds lie on or
    outside the unit circle: the turns of its denominator a(w), w = z^-1,
    round 0 as w goes once round |w| = 1 (the argument principle), or of
    a / (1 - w) when ki = 0 makes g = b0 + b1 zero and a zero at w = 1.
    The circle is walked ``_ARC_STEPS`` grid steps at a time.  A step over
    which arg a turns by more than pi/4 is halved until none does; one that
    straddles a zero on the circle at a double's resolution still does, and
    counts that zero inside."""
    reduced = sum(_loop_terms(cfg, actuator_bw_hz, dt)[0]) == 0.0
    steps = 8 * (2 * delay_steps + 2)
    turns = 0.0
    for lo in range(0, steps, _ARC_STEPS):
        # half from 0 to -pi takes w = exp(-2j half) once round anticlockwise.
        half = np.arange(lo, min(lo + _ARC_STEPS, steps) + 1) * (-np.pi / steps)
        a = _servo_on_circle(half, cfg, actuator_bw_hz, dt, delay_steps, reduced)[1]
        while True:
            step = np.angle(a[1:] * a[:-1].conj())
            wide = np.flatnonzero(np.abs(step) > np.pi / 4)
            mid = 0.5 * (half[wide] + half[wide + 1])
            split = (half[wide] > mid) & (mid > half[wide + 1])
            if not split.any():
                break
            half = np.insert(half, wide[split] + 1, mid[split])
            a = np.insert(a, wide[split] + 1, _servo_on_circle(
                mid[split], cfg, actuator_bw_hz, dt, delay_steps, reduced)[1])
        step[wide] = np.pi
        turns += np.sum(step)
    return int(round(turns / (2.0 * np.pi)))


def loop_sensitivity(freqs_hz, cfg: ControllerConfig, actuator_bw_hz, dt, delay_steps):
    """The residual over the input of the servo ``_loop_filter_polys`` builds,
    S = d / a (``_servo_on_circle``) at z = exp(j 2 pi f dt).  S(0) = 0, its
    limit also when ki = 0 makes d and a share a factor 1 - z^-1.  S repeats
    every 1/dt."""
    half = np.pi * dt * np.asarray(freqs_hz, dtype=float)
    d, a = _servo_on_circle(half, cfg, actuator_bw_hz, dt, delay_steps)
    return np.divide(d, a, out=d, where=half != 0.0)


def _at_rest(cfg, n1, n2):
    """State before a run's first sample: noise pre-history held at the
    records' first values, corrections at zero, both loops at rest."""
    h = 2 * max(cfg.m1, cfg.m2)
    zeros = np.zeros(h)
    history = {"n1": np.full(h, n1[0]), "n2": np.full(h, n2[0]),
               "c1": zeros, "a2": zeros, "arr": zeros}
    zi = tuple(np.zeros(2 * m + 1) for m in (cfg.m1, cfg.m2))
    return LoopState(0, 0.0, history, zi)


def _lag(line, steps, n):
    """The last ``n`` samples of ``line``'s record delayed by ``steps``, a view."""
    return line[line.size - n - steps: line.size - steps]


def _peak(x):
    """``np.max(np.abs(x))`` without the |x| temporary."""
    return max(np.max(x), -np.min(x))


def _running_limit(state, inputs):
    """Divergence limit at each step: ``DIVERGENCE_FLOOR_S`` plus 1e3 x the
    largest |input| up to that step.  The correction at step k depends only
    on inputs up to k, so the limit is causal and does not depend on how a
    run is chunked."""
    peak = np.maximum.reduce([np.abs(r) for r in inputs])
    return DIVERGENCE_FLOOR_S + 1e3 * np.maximum.accumulate(
        np.maximum(peak, state.input_peak))


def _first_divergent(corr, peak, state, inputs):
    """Index of the first step whose correction is non-finite or beyond the
    running limit, or None; ``peak`` is ``_peak(corr)``."""
    # The limit never falls during a run, so a chunk below its first
    # step's limit needs no per-step check.
    if peak <= DIVERGENCE_FLOOR_S + 1e3 * state.input_peak:
        return None
    over = ~(np.abs(corr) <= _running_limit(state, inputs))
    return int(np.argmax(over)) if np.any(over) else None


def _check_divergence(corrections, state, inputs):
    """Raise DivergenceError at the earliest divergent step of either loop,
    so the step does not depend on how the run is chunked or on the engine.
    Otherwise return each correction's largest |value|."""
    found, peaks = [], []
    for label, corr in corrections:
        peaks.append(_peak(corr))
        k = _first_divergent(corr, peaks[-1], state, inputs)
        if k is not None:
            found.append((k, label, corr))
    if not found:
        return peaks
    k, label, corr = min(found, key=lambda f: f[0])
    step = state.start + k
    if not np.isfinite(corr[k]):
        raise DivergenceError(
            f"{label} correction became non-finite at step {step}; "
            "the loop is unstable at these settings", step=step)
    limit = float(_running_limit(state, inputs)[k])
    magnitude = float(abs(corr[k]))
    raise DivergenceError(
        f"{label} correction reached {magnitude:g} s at step {step}, beyond the "
        f"limit {limit:g} s; the loop is unstable at these settings",
        step=step, magnitude=magnitude)


def run_closed_loop(cfg: LinkLoopConfig, n1, n2, d1, d2, probe_det=None,
                    engine="lfilter", state=None) -> LoopRunResult:
    """Simulate the compensated dual-fiber link.

    ``n1``/``n2`` are the per-fiber delay-fluctuation records, ``d1``/``d2``
    the loop detectors' noise records (phase-time), all at step ``cfg.dt``.
    The near-end loop conjugates fiber 1; the corrected arrival is returned
    through fiber 2 under the far-end loop.  A probe channel shares fiber 1
    but bypasses the correction, so open- and closed-loop stabilities come
    out of the same run.

    The linear engine evaluates the exact servo recurrences with vectorized
    IIR filtering and reports (not enforces) actuator saturation; the stepped
    engine walks the same equations per sample and honors actuator clamping
    and piezo-to-thermal offload.

    The linear engine runs a long record as consecutive chunks: pass the
    ``state`` of the previous chunk's result and the outputs continue it
    exactly, byte for byte.  ``state=None`` starts a run at rest.  In
    either engine, an applied correction beyond ``DIVERGENCE_FLOOR_S`` plus
    1e3 x the largest |input| so far raises ``DivergenceError`` with the
    step's index in the run.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    n = n1.size
    if not (n2.size == d1.size == d2.size == n):
        raise InvalidInputError("all input records must share one length")
    if probe_det is None:
        probe_det = 0.0             # adds as a zero record would: -0.0 turns 0.0
    m1, m2 = cfg.m1, cfg.m2

    if engine not in _ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if state is None:
        state = _at_rest(cfg, n1, n2)
    elif engine != "lfilter":
        raise InvalidInputError("only the linear engine continues a run from a state")
    inputs = (n1, n2, d1, d2)
    # Each delayed term is a view of one [history | chunk] line per record;
    # the engine fills the c1, a2 and arr chunks.
    h = 2 * max(m1, m2)
    lines = {name: np.empty(h + n) for name in state.history}
    for name, line in lines.items():
        line[:h] = state.history[name]
    lines["n1"][h:], lines["n2"][h:] = n1, n2
    c1app, a2app, arr = (lines[name][h:] for name in ("c1", "a2", "arr"))
    if cfg.topology == "off":
        c1app[:] = 0.0
        a2app[:] = 0.0
        np.add(_lag(lines["c1"], m1, n), n1, out=arr)
        zi, warnings, beyond = state.zi, (), state.beyond_range
    else:
        zi, warnings, beyond = _ENGINES[engine](cfg, inputs, state, lines)

    round_trip = np.add(_lag(lines["c1"], m1 + m2, n), _lag(lines["n1"], m2, n))
    round_trip += _lag(lines["a2"], m2, n)
    round_trip += n2
    probe_rt = np.add(_lag(lines["n1"], m1, n), n1)
    probe_rt += probe_det
    next_state = None
    if engine == "lfilter":
        next_state = LoopState(
            state.start + n,
            max(state.input_peak, *(float(_peak(r)) for r in inputs)),
            {name: line[n:].copy() for name, line in lines.items()}, zi, beyond)
    return LoopRunResult(cfg.dt, arr, round_trip, probe_rt,
                         c1app, a2app, warnings=tuple(warnings), state=next_state)


_BEYOND_RANGE = (
    "rf_phase_shifter commanded beyond its range (not clamped by linear engine)",
    "optical actuators commanded beyond combined range (not clamped by linear engine)")


def _run_linear(cfg, inputs, state, lines):
    n1, n2, d1, d2 = inputs
    n = n1.size
    m1, m2 = cfg.m1, cfg.m2
    c1app, a2app, arr = (_lag(lines[name], 0, n) for name in ("c1", "a2", "arr"))
    # One work record holds each loop's input, -(w / 2), in turn.
    w = np.add(_lag(lines["n1"], m1, n), n1)
    w += d1
    w *= -0.5
    b1, a1 = _loop_filter_polys(cfg.controller1, cfg.rf_shifter.bandwidth_hz,
                                cfg.dt, m1)
    c1app[:], zi1 = _lfilter(b1, a1, w, state.zi[0])

    # A diverged near-end loop drives the far-end one with overflowing input.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(_lag(lines["c1"], m1, n), n1, out=arr)
        np.add(_lag(lines["n2"], m2, n), n2, out=w)
        w += d2
        if cfg.topology == "series":
            w += _lag(lines["arr"], 2 * m2, n)
            w -= arr
        w *= -0.5
        b2, a2 = _loop_filter_polys(cfg.controller2, cfg.piezo.bandwidth_hz,
                                    cfg.dt, m2)
        a2app[:], zi2 = _lfilter(b2, a2, w, state.zi[1])
    peak1, peak2 = _check_divergence((("near-end", c1app), ("far-end", a2app)),
                                     state, inputs)

    rf, optical = state.beyond_range
    beyond = (rf or peak1 > cfg.rf_shifter.range_s,
              optical or peak2 > cfg.piezo.range_s + cfg.thermal.range_s)
    warnings = [text for text, flag in zip(_BEYOND_RANGE, beyond) if flag]
    return (zi1, zi2), warnings, beyond


def _run_stepped(cfg, inputs, state, lines):
    """Per-sample reference engine with actuator clamping and offload."""
    n1, n2, d1, d2 = inputs
    n = n1.size
    m1, m2 = cfg.m1, cfg.m2
    dt = cfg.dt
    kp1, ki1 = cfg.controller1.gains()
    kp2, ki2 = cfg.controller2.gains()
    actuators = (cfg.rf_shifter, cfg.piezo, cfg.thermal)
    a_rf, a_pz, a_th = (actuator_alpha(act.bandwidth_hz, dt) for act in actuators)
    rng_rf, rng_pz, rng_th = (act.range_s for act in actuators)
    k_off = 2.0 * np.pi * cfg.controller2.crossover_hz * dt
    series = cfg.topology == "series"

    n1l, n2l, d1l, d2l = (r.tolist() for r in inputs)
    c1app, a2app, arr = ([0.0] * n for _ in range(3))
    i1 = c1 = c1pos = 0.0                       # near-end loop
    i2 = u2 = pz = th = th_cmd = 0.0            # far-end loop
    sat_rf = sat_pz = pinned_rf = pinned_pz = False

    for k in range(n):
        k2m1 = k - 2 * m1
        e1 = (c1app[k2m1] * 2.0 if k2m1 >= 0 else 0.0) \
            + n1l[k - m1 if k >= m1 else 0] + n1l[k] + d1l[k]
        pe1 = -0.5 * e1
        if not (pinned_rf and (pe1 > 0) == (c1 > 0)):
            i1 += pe1 * dt
        c1 += (kp1 * pe1 + ki1 * i1) * dt
        pinned_rf = abs(c1) > rng_rf
        if pinned_rf:
            sat_rf = True
            c1 = rng_rf if c1 > 0 else -rng_rf       # back-calculated command
        c1pos += a_rf * (c1 - c1pos)
        c1app[k] = c1pos
        arr[k] = (c1app[k - m1] if k >= m1 else 0.0) + n1l[k]

        k2m2 = k - 2 * m2
        e2 = (a2app[k2m2] * 2.0 if k2m2 >= 0 else 0.0) \
            + n2l[k - m2 if k >= m2 else 0] + n2l[k] + d2l[k]
        if series:
            e2 += (arr[k2m2] if k2m2 >= 0 else 0.0) - arr[k]
        pe2 = -0.5 * e2
        if not (pinned_pz and (pe2 > 0) == (pz > 0)):
            i2 += pe2 * dt
        u2 += (kp2 * pe2 + ki2 * i2) * dt
        th_cmd += k_off * pz
        t_th = th_cmd if -rng_th <= th_cmd <= rng_th else (rng_th if th_cmd > 0 else -rng_th)
        th += a_th * (t_th - th)
        pz_cmd = u2 - th
        pinned_pz = not (-rng_pz <= pz_cmd <= rng_pz)
        if pinned_pz:
            sat_pz = True
            t_pz = rng_pz if pz_cmd > 0 else -rng_pz
            u2 += t_pz - pz_cmd                       # back-calculated command
        else:
            t_pz = pz_cmd
        pz += a_pz * (t_pz - pz)
        a2app[k] = pz + th

    for name, rec in (("c1", c1app), ("a2", a2app), ("arr", arr)):
        _lag(lines[name], 0, n)[:] = rec
    c1app, a2app = _lag(lines["c1"], 0, n), _lag(lines["a2"], 0, n)
    _check_divergence((("near-end", c1app), ("far-end", a2app)), state, inputs)
    warnings = []
    if sat_rf:
        warnings.append("rf_phase_shifter saturated")
    if sat_pz:
        warnings.append("piezo_stretcher saturated"
                        + (" (offload engaged)" if k_off > 0 else ""))
    return state.zi, warnings, state.beyond_range


_ENGINES = {"lfilter": _run_linear, "stepped": _run_stepped}


# ----------------------------------------------------------------------
# Low-frequency (decimated) closed-loop model


def loop_suppression(x: PhaseSeries, cfg: ControllerConfig, actuator_bw_hz,
                     dt, delay_steps, out=None) -> PhaseSeries:
    """The decimated-time model of one loop: the record's spectrum times the
    ``loop_sensitivity`` of the servo that ``run_closed_loop`` simulates at
    step ``dt``.  The record's frequencies must stay below 1/(2 dt); its DC
    bin is fully suppressed (infinite integrator gain).

    The map is circular at ``len(x)``.  A caller that wants fast transforms
    pads ``x`` with zeros to a 5-smooth length (``noise._fast_len(n)``) and
    keeps the first n samples of the result, as the decimated model in
    ``scenario`` does.  The sensitivity is made and applied in blocks of at
    most ``_SENSITIVITY_BLOCK`` bins at ``np.fft.rfftfreq``'s frequencies,
    the product in real arithmetic, so no work array is record-sized and no
    bit depends on the block or on the host's SIMD level.

    The inverse transform writes into ``out`` if given, which may be the
    memory of ``x.samples``: the record is read only by the forward
    transform.  The spectrum is then the one record-sized array the call
    adds.  The result is a view of ``out``, so ``out`` stays writable.
    When ``out`` shares the memory of ``x.samples``, ``x`` must not be used
    after the call: its samples are then the closed record's.
    """
    n = len(x)
    spec = np.fft.rfft(x.samples)
    df = 1.0 / (n * x.tau0)         # as np.fft.rfftfreq builds its bins
    for lo in range(0, spec.size, _SENSITIVITY_BLOCK):
        block = spec[lo:lo + _SENSITIVITY_BLOCK]
        sens = loop_sensitivity(np.arange(lo, lo + block.size) * df, cfg, actuator_bw_hz,
                                dt, delay_steps)
        re = block.real * sens.real - block.imag * sens.imag
        block.imag = block.imag * sens.real + block.real * sens.imag
        block.real = re
    closed = np.fft.irfft(spec, n=n, out=out)
    return PhaseSeries(closed[:], x.tau0, label=f"{x.label}|closed")
