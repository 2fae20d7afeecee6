"""Output checks for each workload, applied to the CSVs a run wrote.

The thresholds are those of the acceptance suite (``tests/test_acceptance.py``)
and must not be loosened.  The checks parse the CSVs themselves, with the
standard library only, so that a change to the program's readers cannot make
a broken output pass.
"""

from __future__ import annotations

import decimal
import hashlib
import math
import os

from workloads import COMB_3D_GATES

# Criterion 5: closed-loop short term.
FULLRATE_SIGMA_1S = 1.2e-14
FULLRATE_SIGMA_FACTOR = 2.0
PSD_BAND_HZ = (0.9, 1.1)
PSD_TARGET_DB = -120.0
PSD_TOL_DB = 3.0
# Criterion 6: closed-loop long term.
RATIO_TAU_S = 4e4
RATIO_MIN = 100.0
DAY_TAU_S = 86400.0
DAY_SIGMA_MAX = 5e-17
# Criterion 9: chain stability transfer.
COMB_SIGMA_1S = math.sqrt(3e-14 ** 2 + 2 * 8e-15 ** 2)
COMB_SIGMA_TOL = 0.15
# Criterion 11: the budget records' population (preset defaults).
BUDGET_MEAN_HZ = 3.9
BUDGET_SIGMA_HZ = 10.0
# Comb constants of the fig4 preset: f_opt = q * f_rep + sign * delta, and the
# counted beat is the final shift target minus the repetition-rate offset.
COMB_Q = 29100
COMB_F_REP_HZ = 995_000_000
COMB_DELTA_HZ = 40_000_000
COMB_SIGN = 1
COMB_SHIFT_HZ = 68


def _rows(out_dir, name, header):
    """Data rows of a fiberlink CSV: comments skipped, header verified."""
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh
                 if line.strip() and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"{name}: expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _adev_at(out_dir, name, tau):
    matches = [float(sigma) for t, sigma, _ in _rows(out_dir, name, "tau_s,sigma,n_pairs")
               if math.isclose(float(t), tau, rel_tol=1e-9)]
    if len(matches) != 1:
        raise ValueError(f"{name}: no unique point at tau={tau:g} s")
    return matches[0]


def fullrate_sigma_1s(out_dir):
    sigma = _adev_at(out_dir, "closed_loop_fullrate.csv", 1.0)
    ok = FULLRATE_SIGMA_1S / FULLRATE_SIGMA_FACTOR <= sigma \
        <= FULLRATE_SIGMA_1S * FULLRATE_SIGMA_FACTOR
    return ok, f"closed full-rate sigma(1 s) = {sigma:.4e} (1.2e-14 x/ 2)"


def psd_band_1hz(out_dir):
    lo, hi = PSD_BAND_HZ
    band = [float(v) for f, v, _ in _rows(out_dir, "round_trip_psd.csv", "freq_hz,psd,rbw_hz")
            if lo <= float(f) <= hi]
    if not band:
        raise ValueError(f"round_trip_psd.csv: no bins in [{lo}, {hi}] Hz")
    db = 10.0 * math.log10(sum(band) / len(band))
    ok = abs(db - PSD_TARGET_DB) <= PSD_TOL_DB
    return ok, f"residual PSD over {lo}-{hi} Hz = {db:.2f} dBrad^2/Hz (-120 +/- 3)"


def open_closed_ratio(out_dir):
    ratio = (_adev_at(out_dir, "open_loop.csv", RATIO_TAU_S)
             / _adev_at(out_dir, "closed_loop.csv", RATIO_TAU_S))
    return ratio >= RATIO_MIN, f"open/closed at 4e4 s = {ratio:.0f} (>= 100)"


def closed_sigma_1day(out_dir):
    sigma = _adev_at(out_dir, "closed_loop.csv", DAY_TAU_S)
    return sigma <= DAY_SIGMA_MAX, f"closed sigma(1 day) = {sigma:.3e} (<= 5e-17)"


def comb_sigma_1s(out_dir):
    sigma = _adev_at(out_dir, "comb_adev.csv", 1.0)
    ok = abs(sigma - COMB_SIGMA_1S) <= COMB_SIGMA_TOL * COMB_SIGMA_1S
    return ok, f"recovered sigma(1 s) = {sigma:.4e} ({COMB_SIGMA_1S:.4e} +/- 15%)"


def budget_estimate(out_dir):
    values = {q: float(v) for q, v in _rows(out_dir, "freq_estimate.csv", "quantity,value_hz")}
    n = sum(1 for q in values if q.startswith("record_"))
    if n < 2:
        raise ValueError("freq_estimate.csv: fewer than 2 records")
    mean_tol = 3 * BUDGET_SIGMA_HZ / math.sqrt(n)
    sigma_tol = 3 * BUDGET_SIGMA_HZ / math.sqrt(2 * (n - 1))
    mean, sigma = values["mean_offset"], values["sigma_1"]
    ok = abs(mean - BUDGET_MEAN_HZ) <= mean_tol and abs(sigma - BUDGET_SIGMA_HZ) <= sigma_tol
    return ok, (f"estimate {mean:.2f} +/- {sigma:.2f} Hz vs 3.9 +/- 10 Hz "
                f"(tolerances {mean_tol:.1f}, {sigma_tol:.1f}, {n} records)")


def _decimal_uhz(text):
    """Exact integer microhertz of a fixed-point decimal with 6 places."""
    whole, dot, frac = text.lstrip("-").partition(".")
    if not (dot and whole.isdigit() and frac.isdigit() and len(frac) == 6):
        raise ValueError(f"f_opt_hz {text!r} is not a 6-place decimal")
    value = int(whole) * 10 ** 6 + int(frac)
    return -value if text.startswith("-") else value


def gate_decimals(out_dir):
    """Each f_opt_hz decimal against q * (f_rep + shift - counted) + sign * delta.

    The reconstruction is exact: the context traps any inexact step, so the
    decimal arithmetic equals the Fraction arithmetic on the same values.
    """
    rows = _rows(out_dir, "comb_gates.csv", "gate_index,counted_hz,f_opt_hz")
    base_uhz = (COMB_Q * (COMB_F_REP_HZ + COMB_SHIFT_HZ) + COMB_SIGN * COMB_DELTA_HZ) * 10 ** 6
    bad = []
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.traps[decimal.Inexact] = True
        for i, (index, counted, f_opt) in enumerate(rows):
            exact_uhz = base_uhz - COMB_Q * 10 ** 6 * decimal.Decimal(counted)
            expected = int(exact_uhz.to_integral_value(decimal.ROUND_HALF_EVEN))
            if int(index) != i or expected != _decimal_uhz(f_opt):
                bad.append(i)
    ok = not bad and len(rows) == COMB_3D_GATES
    return ok, (f"{len(rows)} gates (expected {COMB_3D_GATES}), {len(bad)} f_opt_hz "
                f"decimals differ from the exact reconstruction"
                + (f", first at gate {bad[0]}" if bad else ""))


CHECKS = {
    "fig1": (fullrate_sigma_1s, psd_band_1hz, open_closed_ratio),
    "longterm_10d": (open_closed_ratio, closed_sigma_1day),
    "comb_3d": (comb_sigma_1s, budget_estimate, gate_decimals),
}


def run_checks(workload, out_dir):
    """``[(check, ok, detail)]`` for every check of ``workload``."""
    results = []
    for check in CHECKS[workload]:
        try:
            ok, detail = check(out_dir)
        except (OSError, ValueError, KeyError, ArithmeticError) as exc:
            ok, detail = False, f"unreadable output: {exc}"
        results.append((check.__name__, ok, detail))
    return results


def output_digest(out_dir, names):
    """SHA-256 over the named output files, in order, name and bytes."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()
