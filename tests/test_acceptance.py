"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Paper-scale results are reproducible at desk scale because the
system simulates the apparatus; noise inputs are calibrated assumptions, so
tolerances are deliberately loose where only outcomes are reported.
"""

import numpy as np
import pytest

import fiberlink as fl
from fiberlink.comb import (BudgetEntry, CombParams, CounterChainConfig,
                            optical_from_rep_rate, rep_rate_from_optical,
                            stability_budget)
from fiberlink.control import ControllerConfig, _unstable_poles, critical_frequency
from fiberlink.noise import NoiseSpec, gen_power_law_phase
from fiberlink.series import FracFreqSeries, PhaseSeries
from fiberlink.stability import (allan_deviation, allan_deviation_phase,
                                 fit_power_law, one_way_from_round_trip)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_estimator_calibration():
    # White-FM generator with h0 for sigma_y(1 s) = 1e-14; ensemble of
    # 100 x 1e4-sample runs recovers it within 10%.
    spec = NoiseSpec(powerlaw=((0, 2e-28),))
    total = 0.0
    runs = 100
    for i in range(runs):
        x = gen_power_law_phase(spec, 10_001, 1.0, 60_000 + i)
        total += allan_deviation_phase(x, [1.0]).sigmas[0]
    mean = total / runs
    ok = abs(mean - 1e-14) <= 0.10 * 1e-14
    report(1, "estimator-calibration", ok,
           f"ensemble sigma_y(1 s) = {mean:.3e} (target 1e-14 +/- 10%)")


def test_02_slope_laws():
    taus = [4, 8, 16, 32, 64, 128]
    cases = ((2, -1.0, "white-PM"), (0, -0.5, "white-FM"), (-2, +0.5, "walk-FM"))
    details, ok = [], True
    for alpha, target, label in cases:
        acc = np.zeros(len(taus))
        runs = 40
        for i in range(runs):
            x = gen_power_law_phase(NoiseSpec(powerlaw=((alpha, 1e-28),)),
                                    8193, 1.0, 81_000 + 101 * alpha + i)
            acc += allan_deviation_phase(x, taus).sigmas
        curve = fl.AdevCurve(taus, acc / runs, np.full(len(taus), 9), "standard")
        slope = fit_power_law(curve).exponent
        ok = ok and abs(slope - target) <= 0.05
        details.append(f"{label} {slope:+.3f} (target {target:+.1f})")
    report(2, "slope-laws", ok, ", ".join(details) + " +/- 0.05")


def test_03_round_trip_halving(open_passes, power_law_pair):
    # Fully correlated dual fiber through the link model with its servos off,
    # at a delay it resolves and that is far below the smallest tau (2 steps
    # of 10 ms each way): one-way Allan equals half the round-trip Allan
    # within 5% for tau in [1, 100] s.
    dt = 1e-2
    spec = NoiseSpec(powerlaw=((0, 4e-24), (-2, 1e-28)))
    n1, n2 = power_law_pair(spec, 0.0, 40_960, dt, 515)
    res = open_passes(n1, n2, dt, 2)
    taus = [1, 2, 5, 10, 20, 50, 100]
    ow = allan_deviation_phase(PhaseSeries(res.one_way, dt), taus, "overlapping")
    halved = one_way_from_round_trip(
        allan_deviation_phase(PhaseSeries(res.round_trip, dt), taus, "overlapping"))
    err = np.max(np.abs(halved.sigmas / ow.sigmas - 1.0))
    ok = err <= 0.05
    report(3, "round-trip-halving", ok,
           f"max |one_way / (rt/2) - 1| = {err:.2e} over tau in [1, 100] s "
           f"at a {2 * dt:g} s one-way delay")


def test_04_correlated_pair_target(power_law_pair):
    spec = NoiseSpec(powerlaw=((2, 1.9e-28),))
    f1, f2 = power_law_pair(spec, 0.1, 200_000, 1.0, 99)
    diff = PhaseSeries(f1 - f2, 1.0)
    ratio = (allan_deviation_phase(diff, [1.0]).sigmas[0]
             / allan_deviation_phase(PhaseSeries(f1, 1.0), [1.0]).sigmas[0])
    ok = abs(ratio - 0.1) <= 0.30 * 0.1
    report(4, "correlated-pair", ok,
           f"Allan(diff)/Allan(single) at 1 s = {ratio:.4f} (target 0.1 +/- 30%)")


def test_05_closed_loop_short_term(fig1_report):
    rep, _ = fig1_report
    full = rep.results["fullrate"]
    sigma = full["curves"]["closed_rt"].sigma_at(1.0)
    psd_db = 10 * np.log10(full["psd_rt"].band_mean(0.9, 1.1))
    ok_sigma = 1.2e-14 / 2 <= sigma <= 1.2e-14 * 2
    ok_psd = abs(psd_db - (-120.0)) <= 3.0
    report(5, "closed-loop-short-term", ok_sigma and ok_psd,
           f"round-trip sigma(1 s) = {sigma:.3e} (1.2e-14 x/ 2), "
           f"residual PSD(1 Hz) = {psd_db:.2f} dBrad^2/Hz (-120 +/- 3)")


def test_06_closed_loop_long_term(fig1_report):
    rep, _ = fig1_report
    dec = rep.results["decimated"]
    ratio = (dec["curves"]["open_rt"].sigma_at(4e4)
             / dec["curves"]["closed_rt"].sigma_at(4e4))
    day = allan_deviation_phase(dec["series"]["closed_rt"], [86_400.0],
                                estimator="overlapping").sigmas[0]
    ok = ratio >= 100.0 and day <= 5e-17 and rep.wall_time_s < 300.0
    report(6, "closed-loop-long-term", ok,
           f"open/closed at 4e4 s = {ratio:.0f} (>= 100), "
           f"closed sigma(1 day) = {day:.2e} (<= 5e-17), "
           f"run wall time {rep.wall_time_s:.1f} s (< 300)")


def test_07_delay_limited_bandwidth(stability_edge):
    # fig1's near-end servo, which the runs simulate: a 0.1 ms step, m = 2
    # (a 0.4 ms round trip), a 30 Hz integrator corner and the 50 kHz RF
    # shifter.  Its edge is decided from its own loop polynomial.
    fc = critical_frequency(0.4e-3)
    stable = _unstable_poles(ControllerConfig(unity_gain_hz=300.0), 5e4, 1e-4, 2) == 0
    unstable = _unstable_poles(ControllerConfig(unity_gain_hz=700.0), 5e4, 1e-4, 2) > 0
    edge = stability_edge(5e4)
    ok = (fc == pytest.approx(625.0) and stable and unstable
          and abs(edge - fc) <= 0.10 * fc)
    report(7, "delay-limited-bandwidth", ok,
           f"critical = {fc:.0f} Hz, 300 Hz stable = {stable}, "
           f"700 Hz unstable = {unstable}, servo edge = {edge:.2f} Hz (625 +/- 10%)")


def test_08_comb_arithmetic():
    params = CombParams(q=29100, delta_hz="40000000", sign=+1,
                        f_rep_nominal_hz="1000000000")
    worst = 0.0
    from fractions import Fraction
    for uhz in (0, 1, -1, 123_456_789, -987_654_321):
        f_opt = params.optical_nominal_hz + Fraction(uhz, 10 ** 6)
        back = optical_from_rep_rate(params, rep_rate_from_optical(params, f_opt))
        worst = max(worst, abs(float(back - f_opt)))
    rel = worst / float(params.optical_nominal_hz)
    ok = worst <= 1e-6 and rel <= 3e-20
    report(8, "comb-arithmetic", ok,
           f"f_opt -> f_rep -> f_opt worst error = {worst:.2e} Hz at "
           f"{float(params.optical_nominal_hz):.3e} Hz (<= 1e-6 Hz)")


def test_09_chain_stability_transfer(fig4_report):
    rep, _ = fig4_report
    sigma = rep.results["comb"]["curves"]["comb_recovered"].sigma_at(1.0)
    target = np.sqrt((3e-14) ** 2 + (8e-15) ** 2 + (8e-15) ** 2)
    ok = abs(sigma - target) <= 0.15 * target
    report(9, "chain-stability-transfer", ok,
           f"recovered sigma(1 s) = {sigma:.4e} (target {target:.4e} +/- 15%)")


def test_10_budget_arithmetic():
    res = stability_budget(3e-14, [BudgetEntry("optical_link", 8e-15),
                                   BudgetEntry("reference_100mhz", 8e-15)])
    expected = np.sqrt((3e-14) ** 2 - 2 * (8e-15) ** 2)
    ok_val = res.residual_upper_bound == pytest.approx(expected, rel=1e-12) \
        and res.residual_upper_bound == pytest.approx(2.77e-14, rel=0.01)
    clamped = stability_budget(3e-14, [BudgetEntry("laser", 3e-14),
                                       BudgetEntry("optical_link", 8e-15),
                                       BudgetEntry("reference_100mhz", 8e-15)])
    ok_clamp = clamped.residual_upper_bound == 0.0 and clamped.clamped
    report(10, "budget-arithmetic", ok_val and ok_clamp,
           f"residual = {res.residual_upper_bound:.4e} (2.77e-14), "
           f"with laser term -> {clamped.residual_upper_bound} clamped={clamped.clamped}")


def test_11_estimator_statistics(budget_report):
    rep, _ = budget_report
    mean, sigma = rep.results["budget"]["estimate"]
    n = rep.scenario_echo["budget"]["records"]
    mean_tol = 3 * 10.0 / np.sqrt(n)                 # 3 sigma of the mean
    sigma_tol = 3 * 10.0 / np.sqrt(2 * (n - 1))      # 3 sigma of the spread
    ok = abs(mean - 3.9) <= mean_tol and abs(sigma - 10.0) <= sigma_tol
    report(11, "estimator-statistics", ok,
           f"estimate {mean:.2f} +/- {sigma:.2f} Hz vs population 3.9 +/- 10 Hz "
           f"(tolerances {mean_tol:.1f}, {sigma_tol:.1f})")


def test_12_determinism(tmp_path):
    scn = fl.load_scenario({
        "seed": 777_001, "preset": "fig1",
        "run": {"fullrate_duration_s": 40.0, "decimated_duration_s": 6000.0},
        "outputs": {"adev_taus_s": [1, 2, 5, 10, 100, 1000],
                    "fullrate_taus_s": [1, 2, 4, 8], "psd_segment_s": 10.0}})
    rep_a = fl.run(scn, out_dir=tmp_path / "a")
    rep_b = fl.run(scn, out_dir=tmp_path / "b")
    same = rep_a.manifest == rep_b.manifest and all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in rep_a.manifest)
    report(12, "determinism", same,
           f"{len(rep_a.manifest)} CSVs byte-identical across reruns")
