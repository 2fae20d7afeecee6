"""The two fiber compensation controllers and loop-stability analysis.

Both loops share one structure: the measured round-trip error is halved
(conjugation: the perturbation splits evenly between the two passes under
reciprocity) and fed to a proportional-plus-integral filter whose output is
accumulated into the applied correction.  The open-loop transfer is then

    L(s) = (kp / s + ki / s**2) * exp(-s * tau_rt)

with kp = 2 pi f_unity and ki = kp * 2 pi f_corner.  The round-trip delay
tau_rt enters as a transport delay; with a pure integrator the loop turns
unstable at 1 / (4 tau_rt), which is what limits the usable bandwidth.

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
those of one pass over the whole record, byte for byte.  The stepped engine
("stepped") walks the recurrence per sample over a whole record and clamps
each actuator at its range, with anti-windup and the piezo-to-thermal
offload; it is the nonlinear reference.  Both engines call a loop divergent
when a correction exceeds ``LinkLoopConfig.divergence_limit_s`` plus 1e3 x
the largest |input| seen up to that step: a running maximum, since a
chunked run cannot know the inputs still to come.  The run topology
(``RUN_TOPOLOGIES``) says what the far-end loop sees: "series" feeds it the
near-end loop's corrected arrival, "independent" only fiber 2's own round
trip, and "off" opens both loops.  ``loop_suppression`` is the
decimated-time model: the closed-loop sensitivity applied to slow records
in the frequency domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.signal (~0.9 s and ~75 MB to import) is imported inside the functions
# that filter, so loading, validating and the comb chain never pay for it.

from .errors import DivergenceError, InvalidInputError
from .link import ActuatorState, actuator_alpha, delayed
from .series import PhaseSeries

RUN_TOPOLOGIES = ("series", "independent", "off")


@dataclass(frozen=True)
class ControllerConfig:
    unity_gain_hz: float = 300.0
    integrator_corner_hz: float = 30.0
    crossover_hz: float = 0.1          # piezo-to-thermal offload (far-end loop)
    kp: float | None = None            # 1/s; derived from unity_gain_hz when None
    ki: float | None = None            # 1/s^2; derived from the corner when None

    def __post_init__(self):
        if not self.unity_gain_hz > 0:
            raise InvalidInputError("unity-gain target must be positive")
        for name in ("integrator_corner_hz", "crossover_hz"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")
        for g in (self.kp, self.ki):
            if g is not None and g < 0:
                raise InvalidInputError("controller gains must be non-negative")

    def gains(self):
        """(kp, ki) with defaults resolved from the frequency targets."""
        kp = 2.0 * np.pi * self.unity_gain_hz if self.kp is None else self.kp
        ki = kp * 2.0 * np.pi * self.integrator_corner_hz if self.ki is None else self.ki
        return kp, ki


def critical_frequency(round_trip_delay_s) -> float:
    """Instability boundary of a pure-integrator loop under transport delay.

    The integrator contributes -90 deg; the delay adds -360 deg * f * delay;
    the sum reaches -180 deg at f = 1 / (4 * delay).
    """
    if not round_trip_delay_s > 0:
        raise InvalidInputError("round-trip delay must be positive")
    return 1.0 / (4.0 * round_trip_delay_s)


def integrator_loop_diverges(unity_gain_hz, round_trip_delay_s,
                             dt=1e-5, duration_s=2.0) -> bool:
    """Brute-force time-domain probe of the delay-limited stability boundary.

    Simulates c_k = c_{k-1} - g (c_{k-M} + w_k) (pure integrator, unity gain
    at ``unity_gain_hz``, transport delay M steps) driven by an impulse, and
    reports whether the response grows.
    """
    from scipy import signal

    m = int(round(round_trip_delay_s / dt))
    if m < 2:
        raise InvalidInputError("dt too coarse to resolve the loop delay")
    n = int(round(duration_s / dt))
    g = 2.0 * np.pi * unity_gain_hz * dt
    a = np.zeros(m + 1)
    a[0] = 1.0
    a[1] = -1.0
    a[m] += g
    w = np.zeros(n)
    w[0] = 1.0
    c = signal.lfilter([-g], a, w)
    if not np.all(np.isfinite(c)):
        return True
    third = n // 3
    early = np.max(np.abs(c[third: 2 * third]))
    late = np.max(np.abs(c[2 * third:]))
    return late > early


def find_divergence_onset(round_trip_delay_s, f_lo=200.0, f_hi=1000.0,
                          iters=14, dt=1e-5, duration_s=2.0) -> float:
    """Bisection of the divergence onset of the time-domain probe loop."""
    if integrator_loop_diverges(f_lo, round_trip_delay_s, dt, duration_s):
        raise InvalidInputError(f"lower bracket {f_lo} Hz already diverges")
    if not integrator_loop_diverges(f_hi, round_trip_delay_s, dt, duration_s):
        raise InvalidInputError(f"upper bracket {f_hi} Hz does not diverge")
    lo, hi = f_lo, f_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if integrator_loop_diverges(mid, round_trip_delay_s, dt, duration_s):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
    divergence_limit_s: float = 1e-6

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


def _loop_filter_polys(cfg: ControllerConfig, actuator_bw_hz, dt, delay_steps):
    """(b, a) of applied-correction vs -(w/2) for the discrete servo.

    Controller: pe_k = u_k - app_{k-2M};  I_k = I_{k-1} + dt pe_k;
    cmd_k = cmd_{k-1} + dt (kp pe_k + ki I_k);  app = first-order lag of cmd.
    """
    kp, ki = cfg.gains()
    alpha = actuator_alpha(actuator_bw_hz, dt)
    b = np.array([alpha * dt * (kp + ki * dt), -alpha * dt * kp])
    lag = 1.0 - alpha
    d = np.convolve([1.0, -2.0, 1.0], [1.0, -lag])       # (1 - z^-1)^2 (1 - lag z^-1)
    order = max(d.size, 2 * delay_steps + 2)
    a = np.zeros(order)
    a[: d.size] = d
    a[2 * delay_steps] += b[0]
    a[2 * delay_steps + 1] += b[1]
    return b, a


def _at_rest(cfg, n1, n2):
    """State before a run's first sample: noise pre-history held at the
    records' first values, corrections at zero, both loops at rest."""
    h = 2 * max(cfg.m1, cfg.m2)
    zeros = np.zeros(h)
    history = {"n1": np.full(h, n1[0]), "n2": np.full(h, n2[0]),
               "c1": zeros, "a2": zeros, "arr": zeros}
    zi = tuple(np.zeros(2 * m + 1) for m in (cfg.m1, cfg.m2))
    return LoopState(0, 0.0, history, zi)


def _running_limit(cfg, state, inputs):
    """Divergence limit at each step: the configured floor plus 1e3 x the
    largest |input| up to that step.  The correction at step k depends only
    on inputs up to k, so the limit is causal and does not depend on how a
    run is chunked."""
    peak = np.maximum.reduce([np.abs(r) for r in inputs])
    return cfg.divergence_limit_s + 1e3 * np.maximum.accumulate(
        np.maximum(peak, state.input_peak))


def _first_divergent(corr, cfg, state, inputs):
    """Index of the first step whose correction is non-finite or beyond the
    running limit, or None."""
    mag = np.abs(corr)
    # The limit never falls during a run, so a chunk below its first
    # step's limit needs no per-step check.
    if np.max(mag) <= cfg.divergence_limit_s + 1e3 * state.input_peak:
        return None
    over = ~(mag <= _running_limit(cfg, state, inputs))
    return int(np.argmax(over)) if np.any(over) else None


def _check_divergence(corrections, cfg, state, inputs):
    """Raise DivergenceError at the earliest divergent step of either loop,
    so the step does not depend on how the run is chunked."""
    found = []
    for label, corr in corrections:
        k = _first_divergent(corr, cfg, state, inputs)
        if k is not None:
            found.append((k, label, corr))
    if not found:
        return
    k, label, corr = min(found, key=lambda f: f[0])
    step = state.start + k
    if not np.isfinite(corr[k]):
        raise DivergenceError(
            f"{label} correction became non-finite at step {step}; "
            "the loop is unstable at these settings", step=step)
    limit = float(_running_limit(cfg, state, inputs)[k])
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
    exactly, byte for byte.  ``state=None`` starts a run at rest.  A
    correction beyond ``cfg.divergence_limit_s`` plus 1e3 x the largest
    |input| so far raises ``DivergenceError`` with the step's index in the
    run.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    n = n1.size
    if not (n2.size == d1.size == d2.size == n):
        raise InvalidInputError("all input records must share one length")
    if probe_det is None:
        probe_det = np.zeros(n)
    m1, m2 = cfg.m1, cfg.m2

    if engine not in _ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if state is None:
        state = _at_rest(cfg, n1, n2)
    elif engine != "lfilter":
        raise InvalidInputError("only the linear engine continues a run from a state")
    inputs = (n1, n2, d1, d2)
    if cfg.topology == "off":
        c1app = np.zeros(n)
        a2app = np.zeros(n)
        zi, warnings, beyond = state.zi, (), state.beyond_range
    else:
        c1app, a2app, zi, warnings, beyond = _ENGINES[engine](cfg, inputs, state)

    hist = state.history
    arr = delayed(c1app, m1, hist["c1"]) + n1
    one_way = arr
    round_trip = (delayed(c1app, m1 + m2, hist["c1"]) + delayed(n1, m2, hist["n1"])
                  + delayed(a2app, m2, hist["a2"]) + n2)
    probe_rt = delayed(n1, m1, hist["n1"]) + n1 + probe_det
    next_state = None
    if engine == "lfilter":
        records = {"n1": n1, "n2": n2, "c1": c1app, "a2": a2app, "arr": arr}
        next_state = LoopState(
            state.start + n,
            max(state.input_peak, *(float(np.max(np.abs(r))) for r in inputs)),
            {name: np.concatenate((hist[name], rec))[-hist[name].size:].copy()
             for name, rec in records.items()}, zi, beyond)
    return LoopRunResult(cfg.dt, one_way, round_trip, probe_rt,
                         c1app, a2app, warnings=tuple(warnings), state=next_state)


_BEYOND_RANGE = (
    "rf_phase_shifter commanded beyond its range (not clamped by linear engine)",
    "optical actuators commanded beyond combined range (not clamped by linear engine)")


def _run_linear(cfg, inputs, state):
    from scipy import signal

    n1, n2, d1, d2 = inputs
    m1, m2 = cfg.m1, cfg.m2
    hist = state.history
    w1 = delayed(n1, m1, hist["n1"]) + n1 + d1
    b1, a1 = _loop_filter_polys(cfg.controller1, cfg.rf_shifter.bandwidth_hz,
                                cfg.dt, m1)
    c1app, zi1 = signal.lfilter(b1, a1, -0.5 * w1, zi=state.zi[0])

    # A diverged near-end loop drives the far-end one with overflowing input.
    with np.errstate(over="ignore", invalid="ignore"):
        arr = delayed(c1app, m1, hist["c1"]) + n1
        w2 = delayed(n2, m2, hist["n2"]) + n2 + d2
        if cfg.topology == "series":
            w2 = w2 + delayed(arr, 2 * m2, hist["arr"]) - arr
        b2, a2 = _loop_filter_polys(cfg.controller2, cfg.piezo.bandwidth_hz,
                                    cfg.dt, m2)
        a2app, zi2 = signal.lfilter(b2, a2, -0.5 * w2, zi=state.zi[1])
    _check_divergence((("near-end", c1app), ("far-end", a2app)), cfg, state, inputs)

    rf, optical = state.beyond_range
    beyond = (rf or np.max(np.abs(c1app)) > cfg.rf_shifter.range_s,
              optical or np.max(np.abs(a2app)) > cfg.piezo.range_s + cfg.thermal.range_s)
    warnings = [text for text, flag in zip(_BEYOND_RANGE, beyond) if flag]
    return c1app, a2app, (zi1, zi2), warnings, beyond


def _run_stepped(cfg, inputs, state):
    """Per-sample reference engine with actuator clamping and offload."""
    n1, n2, d1, d2 = inputs
    limit = _running_limit(cfg, state, inputs)
    n = n1.size
    m1, m2 = cfg.m1, cfg.m2
    dt = cfg.dt
    kp1, ki1 = cfg.controller1.gains()
    kp2, ki2 = cfg.controller2.gains()
    a_rf = actuator_alpha(cfg.rf_shifter.bandwidth_hz, dt)
    a_pz = actuator_alpha(cfg.piezo.bandwidth_hz, dt)
    a_th = actuator_alpha(cfg.thermal.bandwidth_hz, dt)
    rng_rf = cfg.rf_shifter.range_s
    rng_pz = cfg.piezo.range_s
    rng_th = cfg.thermal.range_s
    k_off = 2.0 * np.pi * cfg.controller2.crossover_hz * dt
    series = cfg.topology == "series"

    n1l = n1.tolist()
    n2l = n2.tolist()
    d1l = d1.tolist()
    d2l = d2.tolist()
    c1app = [0.0] * n
    a2app = [0.0] * n
    arr = [0.0] * n
    i1 = c1 = c1pos = 0.0
    i2 = u2 = 0.0
    pz = th = th_cmd = 0.0
    sat_rf = sat_pz = False
    pinned_rf = pinned_pz = False

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

        if k % 4096 == 0 and (abs(c1) > limit[k] or abs(u2) > limit[k]):
            raise DivergenceError(
                f"stepped engine correction exceeded {limit[k]:g} s at step {k}",
                step=k, magnitude=max(abs(c1), abs(u2)))

    warnings = []
    if sat_rf:
        warnings.append("rf_phase_shifter saturated")
    if sat_pz:
        warnings.append("piezo_stretcher saturated"
                        + (" (offload engaged)" if k_off > 0 else ""))
    return np.array(c1app), np.array(a2app), state.zi, warnings, state.beyond_range


_ENGINES = {"lfilter": _run_linear, "stepped": _run_stepped}


# ----------------------------------------------------------------------
# Low-frequency (decimated) closed-loop model


def loop_gain(freqs_hz, cfg: ControllerConfig, round_trip_delay_s):
    """Complex open-loop transfer L(f) for f > 0."""
    kp, ki = cfg.gains()
    f = np.asarray(freqs_hz, dtype=float)
    s = 2j * np.pi * f
    with np.errstate(divide="ignore", invalid="ignore"):
        L = (kp / s + ki / s ** 2) * np.exp(-s * round_trip_delay_s)
    return L


def loop_suppression(x: PhaseSeries, cfg: ControllerConfig,
                     round_trip_delay_s) -> PhaseSeries:
    """Apply the closed-loop sensitivity 1/(1+L) to a slow perturbation record.

    This is the decimated-time representation of the servo: valid for
    content far below the loop bandwidth, where the time-domain transient
    structure is irrelevant.  The DC bin is fully suppressed (infinite
    integrator gain).
    """
    n = len(x)
    spec = np.fft.rfft(x.samples)
    f = np.fft.rfftfreq(n, x.tau0)
    sens = np.empty(f.size, dtype=complex)
    sens[0] = 0.0
    L = loop_gain(f[1:], cfg, round_trip_delay_s)
    sens[1:] = 1.0 / (1.0 + L)
    out = np.fft.irfft(spec * sens, n=n)
    return PhaseSeries(out, x.tau0, label=f"{x.label}|closed")
