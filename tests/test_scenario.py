import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

import fiberlink as fl
from fiberlink import cli
from fiberlink.control import loop_suppression
from fiberlink.errors import InvalidInputError, ScenarioValidationError
from fiberlink.io import read_adev_csv, write_adev_csv
from fiberlink.noise import component_rng
from fiberlink.scenario import (PRESETS, Scenario, _comb_objects, _loop_config,
                                _reference_model_curves, _run_decimated, _run_fullrate,
                                compare_curves, load_scenario, run)
from fiberlink.series import PhaseSeries
from fiberlink.stability import welch_segments


def _leaf_paths(tree, path=""):
    for key, value in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaf_paths(value, here)
        else:
            yield here


LEAF_PATHS = list(_leaf_paths(load_scenario({"seed": 1, "preset": "fig1"}).data))

# A short fig1 run: 20 s full rate after a 5 s discard, 4000 s decimated.
SHORT_FIG1 = {"seed": 3, "preset": "fig1",
              "run": {"fullrate_duration_s": 20.0, "transient_discard_s": 5.0,
                      "decimated_duration_s": 4000.0},
              "outputs": {"adev_taus_s": [1, 2, 5, 10], "fullrate_taus_s": [1, 2],
                          "psd_segment_s": 5.0}}


class TestLoadScenario:
    def test_minimal_preset_expansion(self):
        scn = load_scenario({"seed": 1, "preset": "fig1"})
        assert scn["link"]["enabled"] is True
        assert scn["link"]["length_km"] == 43.0
        assert scn["controllers"]["unity_gain_hz"] == 300.0
        # calibration constants are flagged as assumptions in the echo
        assert "link.detector.floor_rad_per_rthz" in scn.assumed
        assert "link.noise.diurnal_amplitude_s" in scn.assumed

    def test_user_value_not_marked_assumed(self):
        scn = load_scenario({"seed": 1, "preset": "fig1",
                             "link": {"noise": {"diurnal_amplitude_s": 1e-11}}})
        assert "link.noise.diurnal_amplitude_s" not in scn.assumed

    def test_assumed_defaults_of_the_tables_read(self):
        link = ("controllers.closed_floor_walk_fm_h", "controllers.crossover_hz",
                "controllers.integrator_corner_hz", "controllers.piezo_bandwidth_hz",
                "controllers.piezo_range_s", "controllers.rf_shifter_bandwidth_hz",
                "controllers.rf_shifter_range_s", "controllers.thermal_bandwidth_hz",
                "controllers.thermal_range_s", "link.detector.floor_rad_per_rthz",
                "link.noise.burst_amp_median_s", "link.noise.burst_amp_sigma",
                "link.noise.burst_duration_s", "link.noise.burst_rate_per_s",
                "link.noise.differential_ratio", "link.noise.diurnal_amplitude_s",
                "link.noise.white_pm_sx_s2_per_hz")
        comb = ("comb.delta_hz", "comb.f_rep_nominal_hz", "comb.sign")
        assert load_scenario({"seed": 1, "preset": "fig1"}).assumed == link
        assert load_scenario({"seed": 1, "preset": "fig4"}).assumed == comb
        assert load_scenario({"seed": 1, "preset": "budget"}).assumed == comb
        everything = load_scenario({"seed": 1, "preset": "fig1", "comb": {"enabled": True},
                                    "budget": {"enabled": True}})
        assert everything.assumed == comb + link

    def test_resolved_round_trip_delay_from_86km(self):
        scn = load_scenario({"seed": 1, "preset": "fig1"})
        one_way = scn["link"]["length_km"] * scn["link"]["delay_per_km_s"]
        assert 2 * one_way == pytest.approx(0.43e-3)

    def test_tau_exceeding_run_length_names_both(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": 1, "preset": "fig1",
                           "run": {"decimated_duration_s": 10_000.0}})
        msg = str(err.value)
        assert "10000" in msg and "43200" in msg

    def test_validation_is_exhaustive(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": -1, "preset": "fig1",
                           "link": {"length_km": -5,
                                    "noise": {"differential_ratio": 3}},
                           "controllers": {"topology": "sideways"}})
        problems = err.value.problems
        assert len(problems) >= 4
        assert any("seed" in p for p in problems)
        assert any("length_km" in p for p in problems)
        assert any("differential_ratio" in p for p in problems)
        assert any("topology" in p for p in problems)

    def test_string_number_is_listed_not_raised(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": 1, "preset": "fig1",
                           "link": {"step_s": "0.1", "noise": {"differential_ratio": "x"}},
                           "outputs": {"fullrate_taus_s": ["1", 2]},
                           "budget": {"enabled": True, "measured_sigma_1s": "x"}})
        problems = err.value.problems
        for key in ("link.step_s", "differential_ratio", "fullrate_taus_s",
                    "budget.measured_sigma_1s"):
            assert any(key in p for p in problems), key

    def test_discard_as_long_as_run_rejected(self):
        # An invalid number elsewhere does not hide the cross-field problem.
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": 1, "preset": "fig1",
                           "link": {"noise": {"walk_fm_h": "x"}},
                           "run": {"fullrate_duration_s": 20.0, "transient_discard_s": 20.0}})
        assert any("run.transient_discard_s=20" in p for p in err.value.problems)
        assert any("walk_fm_h" in p for p in err.value.problems)

    def test_table_overridden_with_non_object_listed(self):
        problems = _problems({"seed": 1, "preset": "fig1", "link": 5})
        assert problems == ["link must be an object, got 5"]
        problems = _problems({"seed": 1, "preset": "fig1", "link": {"noise": []}})
        assert problems == ["link.noise must be an object, got []"]

    def test_every_table_refuses_a_non_object(self):
        tables = []

        def walk(tree, path):
            for key, value in tree.items():
                if isinstance(value, dict):
                    tables.append(path + (key,))
                    walk(value, path + (key,))
        walk(load_scenario({"seed": 1, "preset": "fig1"}).data, ())
        assert len(tables) == 8
        for table in tables:
            override = leaf = {}
            for key in table[:-1]:
                leaf[key] = {}
                leaf = leaf[key]
            leaf[table[-1]] = "x"
            problems = _problems({"seed": 1, "preset": "fig1", **override})
            assert f"{'.'.join(table)} must be an object, got 'x'" in problems

    def test_non_boolean_flags_listed(self):
        problems = _problems({"seed": 1, "preset": "fig1",
                              "link": {"enabled": "yes"}, "comb": {"enabled": 1},
                              "budget": {"enabled": None},
                              "outputs": {"write_decimated_series": "no"}})
        for flag in ("link.enabled", "comb.enabled", "budget.enabled",
                     "outputs.write_decimated_series"):
            assert any(p.startswith(f"{flag} must be true or false") for p in problems), flag

    def test_taus_off_their_sample_grid_listed(self):
        # Refused at load, not by the Allan estimator during the run.
        problems = _problems({"seed": 1, "preset": "fig1",
                              "outputs": {"adev_taus_s": [1.5, 3],
                                          "fullrate_taus_s": [0.5, 2]}})
        assert problems == [
            "outputs.adev_taus_s entries [1.5] are not integer multiples of "
            "run.decimated_step_s (1 s)",
            "outputs.fullrate_taus_s entries [0.5] are not integer multiples of "
            "the counting gate (1 s)"]
        problems = _problems({"seed": 1, "preset": "fig1",
                              "run": {"decimated_step_s": 10.0}})
        assert any(p.startswith("outputs.adev_taus_s entries [1, 2, 5] ")
                   for p in problems)

    def test_budget_contributions_typed(self):
        problems = _problems({"seed": 1, "preset": "budget", "budget": {"contributions": [
            {"label": "a", "sigma_at_1s": "x"}, {"label": 5, "sigma_at_1s": -1e-15},
            {"label": "c", "sigma_at_1s": float("nan")}]}})
        assert problems == [
            "budget.contributions[0].sigma_at_1s must be non-negative, got 'x'",
            "budget.contributions[1].label must be a string, got 5",
            "budget.contributions[1].sigma_at_1s must be non-negative, got -1e-15",
            "budget.contributions[2].sigma_at_1s must be non-negative, got nan"]

    def test_exact_decimal_keys_parsed_at_load(self):
        bad = {"comb": {"f_rep_nominal_hz": float("inf"), "delta_hz": "abc",
                        "lo_freq_hz": "1/0"},
               "budget": {"nu_ref_offset_hz": [0]}}
        problems = _problems({"seed": 1, "preset": "budget", **bad})
        assert problems == [
            "comb.f_rep_nominal_hz must be a finite number or decimal string, got inf",
            "comb.delta_hz must be a finite number or decimal string, got 'abc'",
            "comb.lo_freq_hz must be a finite number or decimal string, got '1/0'",
            "budget.nu_ref_offset_hz must be a finite number or decimal string, got [0]"]
        problems = _problems({"seed": 1, "preset": "fig4", "comb": {"delta_hz": True}})
        assert problems == [
            "comb.delta_hz must be a finite number or decimal string, got True"]
        # Refused without expanding the power of ten (hours for these).
        problems = _problems({"seed": 1, "preset": "fig4", "comb": {
            "delta_hz": "1e-999999999", "lo_freq_hz": "1E+00_1_000_000_000"}})
        assert problems == [
            "comb.delta_hz must be a finite number or decimal string, got '1e-999999999'",
            "comb.lo_freq_hz must be a finite number or decimal string, "
            "got '1E+00_1_000_000_000'"]
        scn = load_scenario({"seed": 1, "preset": "fig4",
                             "comb": {"delta_hz": "-40000000.5", "lo_freq_hz": 10 ** 9}})
        assert scn["comb"]["delta_hz"] == "-40000000.5"

    def test_comb_table_checked_for_the_budget(self):
        # The budget's records run through the comb chain.
        problems = _problems({"seed": 1, "preset": "budget", "comb": {"if_target_hz": "x"}})
        assert problems == ["comb.if_target_hz must be positive, got 'x'"]

    def test_round_trip_longer_than_run_refused(self):
        # Decided from the numbers alone; nothing is allocated.
        problems = _problems({"seed": 1, "preset": "fig1", "link": {"length_km": 1e300}})
        assert problems == [
            "round-trip delay 2 x link.length_km x link.delay_per_km_s = 1e+295 s "
            "must be shorter than run.fullrate_duration_s=240",
            "round-trip delay 2 x link.length_km x link.delay_per_km_s = 1e+295 s "
            "must be shorter than run.decimated_duration_s=172800"]
        problems = _problems({"seed": 1, "preset": "fig1",
                              "link": {"length_km": 1e200, "delay_per_km_s": 1e200}})
        assert len(problems) == 2 and all("= inf s" in p for p in problems)
        problems = _problems({"seed": 1, "preset": "fig1", "link": {"length_km": 2.4e7}})
        assert problems == [
            "round-trip delay 2 x link.length_km x link.delay_per_km_s = 240 s "
            "must be shorter than run.fullrate_duration_s=240"]
        # Just inside, at a step coarse enough for the servo-work cap, with
        # the gains scaled by 1e-6 to a stable loop at its 239 s round trip.
        load_scenario({"seed": 1, "preset": "fig1",
                       "link": {"length_km": 2.39e7, "step_s": 1.0},
                       "controllers": {"unity_gain_hz": 3e-4, "integrator_corner_hz": 3e-5}})

    @pytest.mark.parametrize("override, problem", [
        ({"preset": "fig1", "link": {"step_s": 1e-12}},
         "full-rate samples (run.fullrate_duration_s / link.step_s) = 2.4e+14 "
         "exceeds the cap of 67108864"),
        ({"preset": "fig1", "link": {"step_s": 1e-300}},
         "full-rate samples (run.fullrate_duration_s / link.step_s) = 2.4e+302 "
         "exceeds the cap of 67108864"),
        ({"preset": "fig1", "run": {"decimated_duration_s": 1e7}},
         "decimated samples (run.decimated_duration_s / run.decimated_step_s + 1) = "
         "1e+07 exceeds the cap of 8388608"),
        ({"preset": "fig4", "comb": {"n_gates": 2 ** 22 + 1}},
         "comb.n_gates = 4194305 exceeds the cap of 4194304"),
        ({"preset": "budget", "budget": {"records": 1025, "record_gates": 1024}},
         "budget gates (budget.records x budget.record_gates) = 1049600 exceeds "
         "the cap of 1048576"),
        ({"preset": "fig1", "link": {"length_km": 2.39e7}},
         "servo work (full-rate samples x (2 x one-way delay steps + 2)) = "
         "5.736e+12 exceeds the cap of 8589934592"),
        # 1,600,001 segments of 600,000 samples, one sample apart: ~13 h.
        ({"preset": "fig1", "outputs": {"psd_overlap": 0.999999}},
         "Welch work (PSD segments x outputs.psd_segment_s in samples) = "
         "960000600000 exceeds the cap of 268435456"),
    ])
    def test_sample_caps(self, override, problem):
        # Decided from the numbers alone; nothing is allocated.
        assert _problems({"seed": 1, **override}) == [problem]

    def test_sample_caps_inclusive_and_only_where_read(self):
        load_scenario({"seed": 1, "preset": "fig4", "comb": {"n_gates": 2 ** 22}})
        load_scenario({"seed": 1, "preset": "budget",
                       "budget": {"records": 1024, "record_gates": 1024}})
        # The budget alone reads the comb table but runs no comb gates.
        load_scenario({"seed": 1, "preset": "budget", "comb": {"n_gates": 10 ** 9}})
        load_scenario({"seed": 1, "preset": "fig4", "link": {"step_s": 1e-12}})

    def test_servo_work_cap_inclusive(self):
        # Binary-exact steps: 2^26 samples x (2 x 63 + 2) is 2^33 exactly.
        # The gains are scaled by 1e-2 to a stable loop at m = 63.
        def at(length_km):
            return {"seed": 1, "preset": "fig1",
                    "link": {"length_km": length_km, "delay_per_km_s": 2 ** -13,
                             "step_s": 2 ** -13},
                    "controllers": {"unity_gain_hz": 3.0, "integrator_corner_hz": 0.3},
                    "run": {"fullrate_duration_s": 8192.0}}
        load_scenario(at(63))
        assert _problems(at(64)) == [
            "servo work (full-rate samples x (2 x one-way delay steps + 2)) = "
            "8.72415e+09 exceeds the cap of 8589934592"]
        # 86 km (4 delay steps) at the 2^26-sample cap.
        load_scenario({"seed": 1, "preset": "fig1", "link": {"length_km": 86.0},
                       "run": {"fullrate_duration_s": 2 ** 26 * 1e-4}})

    def test_welch_work_cap_inclusive(self):
        # 2048-sample segments 32 samples apart (overlap 63/64): 2^17 of them
        # are 2^28 samples of work exactly; one more segment is refused.
        def at(segments):
            settled = 2048 + (segments - 1) * 32
            return {"seed": 1, "preset": "fig1",
                    "run": {"fullrate_duration_s": (settled + 200_000) * 1e-4},
                    "outputs": {"psd_segment_s": 0.2048, "psd_overlap": 0.984375}}
        assert welch_segments(2048 + (2 ** 17 - 1) * 32, 2048, 0.984375) == 2 ** 17
        load_scenario(at(2 ** 17))
        assert _problems(at(2 ** 17 + 1)) == [
            "Welch work (PSD segments x outputs.psd_segment_s in samples) = "
            "268437504 exceeds the cap of 268435456"]
        # At overlap 0.75 every run inside the full-rate cap fits, the
        # shortest segment that overlaps by 3/4 (4 samples) included.
        load_scenario({"seed": 1, "preset": "fig1",
                       "run": {"fullrate_duration_s": 2 ** 26 * 1e-4,
                               "transient_discard_s": 0.0},
                       "outputs": {"psd_segment_s": 4e-4, "psd_overlap": 0.75}})

    def test_shipped_scenarios_inside_the_caps(self):
        import importlib.util

        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            load_scenario(workloads.scenario_for(name, 1))
        for preset in PRESETS:
            load_scenario({"seed": 1, "preset": preset})

    @pytest.mark.parametrize("path", [p for p in LEAF_PATHS if p != "preset"])
    def test_every_leaf_refuses_a_string(self, path):
        # Under a preset that reads the key (an unknown preset has its own test).
        parts = path.split(".")
        override = {"seed": 1,
                    "preset": {"comb": "fig4", "budget": "budget"}.get(parts[0], "fig1")}
        node = override
        for table in parts[:-1]:
            node = node.setdefault(table, {})
        node[parts[-1]] = "x"
        problems = _problems(override)
        assert any(p.startswith(f"{path} must be ") for p in problems), problems

    def test_controller_values_refused_at_load(self):
        # ControllerConfig and ActuatorState would refuse these during the run.
        problems = _problems({"seed": 1, "preset": "fig1", "controllers": {
            "unity_gain_hz": 0, "integrator_corner_hz": -1.0, "piezo_range_s": -5e-11}})
        assert problems == [
            "controllers.unity_gain_hz must be positive, got 0",
            "controllers.integrator_corner_hz must be non-negative, got -1.0",
            "controllers.piezo_range_s must be positive, got -5e-11"]

    @pytest.mark.parametrize("override, loops", [
        ({"controllers": {"unity_gain_hz": 700.0}}, ["near-end", "far-end"]),
        ({"controllers": {"unity_gain_hz": 680.0}}, ["far-end"]),
        ({"link": {"length_km": 172.0}}, ["near-end", "far-end"]),
        ({"link": {"length_km": 86.0, "step_s": 5e-5}}, ["near-end", "far-end"]),
    ])
    def test_unstable_loop_refused(self, override, loops):
        # Each loop is decided at load from its own polynomial, with its own
        # actuator's lag; each of these used to load, then diverge in the run.
        problems = _problems({"seed": 1, "preset": "fig1", **override})
        assert [p.split()[1] for p in problems] == loops
        assert all(" loop is unstable, with 2 closed-loop pole(s) on or outside the unit "
                   "circle, at " in p for p in problems), problems

    @pytest.mark.parametrize("override", [
        {"controllers": {"integrator_corner_hz": 0.0}},     # b and a share 1 - z^-1
        {"link": {"length_km": 86.0}},                       # m = 4 at 0.1 ms
        {"controllers": {"unity_gain_hz": 700.0, "topology": "off"}},   # no loop closed
    ])
    def test_stable_or_open_loops_load(self, override):
        load_scenario({"seed": 1, "preset": "fig1", **override})

    def test_comb_constructor_limits_refused_at_load(self):
        problems = _problems({"seed": 1, "preset": "fig4",
                              "comb": {"f_rep_nominal_hz": "0", "filter_bw_hz": 5e6}})
        assert problems == [
            "comb.f_rep_nominal_hz must be positive, got '0'",
            "comb.filter_bw_hz=5e+06 must be below comb.if_target_hz=5e+06"]

    def test_fractional_deviations_below_one(self):
        # stability_budget squares them; 1e300 overflowed there.
        problems = _problems({"seed": 1, "preset": "budget", "budget": {
            "measured_sigma_1s": 1e300,
            "contributions": [{"label": "a", "sigma_at_1s": 1.0}]}})
        assert problems == [
            "budget.measured_sigma_1s must be below 1, got 1e+300",
            "budget.contributions[0].sigma_at_1s must be below 1, got 1.0"]
        load_scenario({"seed": 1, "preset": "budget", "budget": {
            "measured_sigma_1s": 0.999, "contributions": [{"label": "a", "sigma_at_1s": 0.5}]}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": 1, "preset": "fig1", "links": {}})
        assert any("unknown key" in p for p in err.value.problems)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioValidationError):
            load_scenario({"seed": 1, "preset": "fig9"})

    def test_parse_error_has_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1,\n  "preset": fig1}\n')
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(str(bad))
        assert "line 2" in str(err.value)

    def test_nothing_enabled(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario({"seed": 1})
        assert any("nothing to run" in p for p in err.value.problems)


def _problems(override):
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(override)
    return err.value.problems


def _override_trees():
    """Override trees over the real key paths, with mixed-type leaves."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([0, 1, -1, 0.5, 1.5, 3, 1e-300, 1e300, 10 ** 400, "fig1"]))
    values = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=2)), max_leaves=4)

    def tree(template):
        return st.fixed_dictionaries({}, optional={
            key: st.one_of(st.just(default), tree(default), values)
            if isinstance(default, dict) else st.one_of(st.just(default), values)
            for key, default in template.items()})
    template = load_scenario({"seed": 1, "preset": "fig1"}).data
    return st.tuples(st.sampled_from(PRESETS + (None,)), tree(template)).map(
        lambda pair: {**pair[1], "preset": pair[0]} if pair[0] else pair[1])


class TestLoadProperty:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_override_trees())
    def test_loads_or_lists_problems(self, override):
        try:
            scn = load_scenario(override)
        except ScenarioValidationError as exc:
            assert exc.problems
        else:
            assert isinstance(scn, Scenario)
            # What loads, the run's constructors accept.
            if scn["link"]["enabled"]:
                link = scn["link"]
                _loop_config(scn, int(round(
                    link["length_km"] * link["delay_per_km_s"] / link["step_s"])))
            if scn["comb"]["enabled"] or scn["budget"]["enabled"]:
                _comb_objects(scn)


class TestRunOutputs:
    def test_fig1_manifest(self, fig1_report):
        report, out = fig1_report
        expected = {"closed_loop.csv", "open_loop.csv", "cso_reference.csv",
                    "fountain.csv", "closed_loop_fullrate.csv",
                    "open_loop_fullrate.csv", "round_trip_psd.csv"}
        assert expected <= set(report.manifest)
        for name in report.manifest:
            assert (out / name).exists()
        assert (out / "run_report.json").exists()

    def test_fig1_reference_models(self, fig1_report):
        # Each written curve is its clock's law at every tau: CSO white PM
        # (sigma_x = 0.9e-14/sqrt(3) s) plus stationary flicker FM
        # (1.5e-15 floor), fountain white FM (1.6e-14 at 1 s).
        report, out = fig1_report
        echo = report.scenario_echo
        step = echo["run"]["decimated_step_s"]
        n = int(round(echo["run"]["decimated_duration_s"] / step)) + 1
        laws = {"cso_reference": lambda tau: 3.0 * (0.9e-14 / np.sqrt(3.0)) ** 2 / tau ** 2
                + 2.0 * np.log(2.0) * (1.5e-15) ** 2 / (2.0 * np.log(2.0)),
                "fountain": lambda tau: 2.0 * (1.6e-14) ** 2 / (2.0 * tau)}
        for name, law in laws.items():
            curve = report.results["references"][name]
            written = read_adev_csv(out / f"{name}.csv")
            np.testing.assert_array_equal(written.taus, sorted(echo["outputs"]["adev_taus_s"]))
            np.testing.assert_array_equal(written.sigmas, curve.sigmas)
            np.testing.assert_allclose(written.sigmas, np.sqrt(law(written.taus)),
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(
                written.n_pairs, n - 2 * np.rint(written.taus / step).astype(int))
            assert written.estimator == "overlapping"
            assert written.notes == curve.notes
            assert len(curve.notes) == 1 and curve.notes[0].startswith(
                "expected sigma of the clock's law, not a simulated record; n_pairs = ")
            assert f"n = {n} phase samples" in curve.notes[0]

    def test_fig4_manifest(self, fig4_report):
        report, out = fig4_report
        assert {"comb_adev.csv", "link_residual_adev.csv", "comb_gates.csv"} \
            <= set(report.manifest)
        gates = (out / "comb_gates.csv").read_text().splitlines()
        assert gates[1] == "gate_index,counted_hz,f_opt_hz"
        # microhertz-resolution decimal column
        assert "." in gates[2].split(",")[2]

    def test_budget_manifest(self, budget_report):
        report, out = budget_report
        assert {"budget.csv", "freq_estimate.csv"} <= set(report.manifest)
        text = (out / "budget.csv").read_text()
        assert "residual_upper_bound" in text

    def test_csv_metadata_headers(self, fig1_report):
        report, out = fig1_report
        for name in report.manifest:
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith("# metadata: ")
            assert f"seed={report.seed}" in first
            assert "version=" in first

    def test_half_day_suppression_ratio(self, fig1_report):
        # Open vs closed round trip: two-orders-of-magnitude reduction of
        # the diurnal at half a day.
        report, _ = fig1_report
        dec = report.results["decimated"]["curves"]
        cmp = compare_curves(dec["open_rt"], dec["closed_rt"])
        idx = np.argmin(np.abs(cmp.taus - 43_200.0))
        assert cmp.taus[idx] == 43_200.0
        assert cmp.ratios[idx] >= 100.0

    def test_independent_topology_runs(self, tmp_path):
        scn = load_scenario({
            "seed": 5150, "preset": "fig1",
            "controllers": {"topology": "independent"},
            "run": {"fullrate_duration_s": 40.0, "decimated_duration_s": 4000.0},
            "outputs": {"adev_taus_s": [1, 10, 100, 1000],
                        "fullrate_taus_s": [1, 2, 4, 8], "psd_segment_s": 10.0}})
        rep = run(scn, out_dir=tmp_path)
        sigma = rep.results["fullrate"]["curves"]["closed_rt"].sigma_at(1.0)
        assert 0.5e-14 < sigma < 3e-14

    def test_echoed_scenario_reproduces_run(self, tmp_path):
        # The resolved-default echo is complete: re-running from it gives
        # byte-identical outputs.
        base = load_scenario({"seed": 616, "preset": "budget"})
        rep_a = run(base, out_dir=tmp_path / "a")
        echoed = load_scenario(rep_a.scenario_echo)
        rep_b = run(echoed, out_dir=tmp_path / "b")
        assert rep_a.manifest == rep_b.manifest
        for name in rep_a.manifest:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()


class TestReferenceCurveGrid:
    """The reference curves take their taus, omitted taus, pair counts and
    refusals from the overlapping estimator on a record of the decimated
    model's length."""

    @staticmethod
    def _both(duration_s, step_s, taus):
        """The references' curves, and ``allan_deviation_phase``'s on n samples."""
        scn = {"run": {"decimated_duration_s": duration_s, "decimated_step_s": step_s},
               "outputs": {"adev_taus_s": taus}}
        n = int(round(duration_s / step_s)) + 1
        return (lambda: _reference_model_curves(scn),
                lambda: fl.allan_deviation_phase(PhaseSeries(np.zeros(n), step_s), taus,
                                                 estimator="overlapping"))

    @pytest.mark.parametrize("duration_s, step_s, taus", [
        (100.0, 1.0, [1, 10, 49, 50, 51, 1000]),      # 50 keeps n - 2m = 1 pair
        (30.0, 0.5, [15.5, 0.5, 7.5, 2.0, 2.0, 15.0]),
        (100.0, 1.0, [1, 1.0000000001, 10, 60.0000000001, 60]),   # one point per m
    ])
    def test_omitted_taus_as_the_estimator(self, duration_s, step_s, taus):
        references, estimate = self._both(duration_s, step_s, taus)
        expected = estimate()
        assert expected.omitted_taus
        for curve in references().values():
            np.testing.assert_array_equal(curve.taus, expected.taus)
            np.testing.assert_array_equal(curve.n_pairs, expected.n_pairs)
            assert curve.omitted_taus == expected.omitted_taus
            assert curve.estimator == expected.estimator

    @pytest.mark.parametrize("taus", [[1.0, 2.5], [0.3], [1000.0, 7.0 / 3.0],
                                      [float("inf")]])
    def test_off_grid_tau_refused_as_the_estimator(self, taus):
        references, estimate = self._both(100.0, 1.0, taus)
        with pytest.raises(InvalidInputError) as expected:
            estimate()
        with pytest.raises(InvalidInputError) as refused:
            references()
        assert str(refused.value) == str(expected.value)


class TestDeterminism:
    SCN = {"seed": 9090, "preset": "fig1",
           "run": {"fullrate_duration_s": 40.0, "decimated_duration_s": 6000.0},
           "outputs": {"adev_taus_s": [1, 2, 5, 10, 100, 1000],
                       "fullrate_taus_s": [1, 2, 4, 8],
                       "psd_segment_s": 10.0}}

    def test_bit_identical_reruns(self, tmp_path):
        scn = load_scenario(self.SCN)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        rep_a = run(scn, out_dir=out_a)
        rep_b = run(scn, out_dir=out_b)
        assert rep_a.manifest == rep_b.manifest
        for name in rep_a.manifest:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_decimated_series_csv_identical_reruns(self, tmp_path):
        scn = load_scenario(dict(SHORT_FIG1, outputs=dict(
            SHORT_FIG1["outputs"], write_decimated_series=True)))
        for sub in ("a", "b"):
            run(scn, out_dir=tmp_path / sub)
        name = "closed_rt_series.csv"
        data = (tmp_path / "a" / name).read_bytes()
        assert data.count(b"\n") > 4000
        assert data == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("walk", [0.0, 1e-30])
    @pytest.mark.parametrize("topology", ["series", "off"])
    def test_rng_tags_are_pinned(self, walk, topology, monkeypatch):
        # Each stream's rng tag sets its draws, so a changed or added tag
        # would re-seed it and move every output.  Walk FM has no streams at
        # h = 0, and fiber 2's decimated white part has one only when both
        # loops are open.
        def tags(model):
            made = []

            def recording_rng(seed, *tag):
                made.append(tag)
                return component_rng(seed, *tag)

            monkeypatch.setattr("fiberlink.scenario.component_rng", recording_rng)
            model(scn, 3, SimpleNamespace(warnings=[]))
            return collections.Counter(made)

        scn = load_scenario(dict(SHORT_FIG1, link={"noise": {"walk_fm_h": walk}},
                                 controllers={"topology": topology}))
        fibers = range(3)
        walks = [(tag, j) for tag in ("fullrate-walk", "dec-walk") for j in fibers]
        fullrate = [("fullrate-white", j) for j in fibers] + [
            ("fullrate-bursts", j) for j in fibers] + [("det", 1), ("det", 2), ("det", "probe")]
        decimated = [("dec-bursts", j) for j in fibers] + [("dec-white", 0), ("dec-white", 1)]
        decimated += [("dec-white", 2)] if topology == "off" else [
            ("dec-det",), ("dec-closed-floor",)]
        if walk > 0:
            fullrate += walks[:3]
            decimated += walks[3:]
        assert tags(_run_fullrate) == collections.Counter(fullrate)
        assert tags(_run_decimated) == collections.Counter(decimated)

    def test_decimated_model_draws_no_second_white_fiber(self, monkeypatch):
        # Only fiber 1's measurement-band white noise is used, so fiber 2's
        # own part is never drawn.
        tags = []

        def recording_rng(seed, *tag):
            tags.append(tag)
            return component_rng(seed, *tag)

        monkeypatch.setattr("fiberlink.scenario.component_rng", recording_rng)
        scn = load_scenario(SHORT_FIG1)
        _run_decimated(scn, 3, SimpleNamespace(warnings=[]))
        assert ("dec-white", 0) in tags and ("dec-white", 1) in tags
        assert ("dec-white", 2) not in tags

    @pytest.mark.parametrize("ratio", [0.0, 0.1])
    def test_open_topology_closes_no_decimated_loop(self, ratio, monkeypatch):
        # With both loops open the decimated closed record is the two
        # fibers' round trip: no suppression, written detector noise or
        # closed floor, and fiber 2's white part from a source of its own.
        # At a differential ratio of 0 the fibers are one record, so it is
        # the open probe's round trip through fiber 1 twice.  The run asks
        # for the series, so the open record is returned.
        tags = []

        def recording_rng(seed, *tag):
            tags.append(tag)
            return component_rng(seed, *tag)

        monkeypatch.setattr("fiberlink.scenario.component_rng", recording_rng)
        scn = load_scenario(dict(SHORT_FIG1, controllers={"topology": "off"},
                                 link={"noise": {"differential_ratio": ratio}},
                                 outputs=dict(SHORT_FIG1["outputs"],
                                              write_decimated_series=True)))
        out = _run_decimated(scn, 3, SimpleNamespace(warnings=[]))["series"]
        closed, opened = out["closed_rt"].samples, out["open_rt"].samples
        assert ("dec-det",) not in tags and ("dec-white", 2) in tags
        if ratio == 0.0:
            np.testing.assert_allclose(closed, opened, rtol=0,
                                       atol=1e-15 * np.max(np.abs(opened)))
        else:
            assert 0.0 < np.max(np.abs(closed - opened)) < 0.2 * np.max(np.abs(opened))

    def test_seed_override_changes_outputs(self, tmp_path):
        scn = load_scenario(self.SCN)
        rep_a = run(scn, out_dir=tmp_path / "a")
        rep_b = run(scn, out_dir=tmp_path / "b", seed=1)
        name = "closed_loop.csv"
        assert (tmp_path / "a" / name).read_bytes() \
            != (tmp_path / "b" / name).read_bytes()


class TestDecimatedSuppressionLength:
    """The decimated model suppresses its slow sum at a 5-smooth FFT length,
    zero-padded, writes the result over that sum and keeps its first n
    samples."""

    @staticmethod
    def _run(duration_s, monkeypatch, **override):
        calls = []

        def spy(x, *args, **kwargs):
            assert np.shares_memory(kwargs["out"], x.samples)
            calls.append((x.samples.copy(), args, kwargs["out"]))
            return loop_suppression(x, *args, **kwargs)

        monkeypatch.setattr("fiberlink.scenario.loop_suppression", spy)
        scn = load_scenario(dict(SHORT_FIG1, run=dict(
            SHORT_FIG1["run"], decimated_duration_s=duration_s), **override))
        out = _run_decimated(scn, 3, SimpleNamespace(warnings=[]))
        (call,) = calls
        return call, out["series"]

    def test_padded_to_a_fast_length(self, monkeypatch):
        # n = 20,001 = 3 x 59 x 113 is not 5-smooth.
        n = 20_001
        (x, _, _), series = self._run(20_000.0, monkeypatch)
        assert len(x) == next_fast_len(n, real=True) == 20_250
        assert np.any(x[:n] != 0.0)
        assert np.all(x[n:] == 0.0)
        assert len(series["closed_rt"]) == n

    def test_closed_record_is_built_over_the_sum(self, monkeypatch):
        # Unless outputs.write_decimated_series asks for the series, the
        # open record is released before the suppression and not returned,
        # and the detector noise and the closed floor are added onto the
        # suppressed sum itself, the suppression's out=.
        (_, _, out), series = self._run(4000.0, monkeypatch)
        assert set(series) == {"closed_rt"}
        assert np.shares_memory(series["closed_rt"].samples, out)

    def test_a_fast_length_is_not_padded(self, monkeypatch):
        # n = 4,050 = 2 x 3^4 x 5^2.  With no detector noise and no closed
        # floor the closed record is the suppressed sum alone, so it is bit
        # for bit the circular map at n.
        n = 4050
        (x, args, _), series = self._run(
            4049.0, monkeypatch,
            link={"detector": {"floor_rad_per_rthz": 0.0}},
            controllers={"closed_floor_walk_fm_h": 0.0})
        assert len(x) == n
        want = loop_suppression(PhaseSeries(x, 1.0), *args).samples
        assert np.array_equal(series["closed_rt"].samples, want)


class TestCompareCurves:
    def test_identical_curves(self):
        c = fl.AdevCurve([1.0, 10.0], [1e-14, 1e-15], [9, 9], "standard")
        cmp = compare_curves(c, c)
        assert np.allclose(cmp.ratios, 1.0)

    def test_halved_curve(self):
        a = fl.AdevCurve([1.0, 10.0], [2e-14, 2e-15], [9, 9], "standard")
        b = fl.AdevCurve([1.0, 10.0], [1e-14, 1e-15], [9, 9], "standard")
        cmp = compare_curves(a, b)
        assert np.allclose(cmp.ratios, 2.0)
        assert cmp.min_ratio == cmp.max_ratio == pytest.approx(2.0)

    def test_no_common_taus(self):
        a = fl.AdevCurve([1.0], [1e-14], [9], "standard")
        b = fl.AdevCurve([2.0], [1e-14], [9], "standard")
        with pytest.raises(fl.InvalidInputError):
            compare_curves(a, b)


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "fiberlink.cli", *args],
                          capture_output=True, text=True, env=full_env)


class TestCli:
    FAST = {"seed": 11, "preset": "budget"}

    def test_validate_ok(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(self.FAST))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 0
        assert "scenario OK" in proc.stdout
        assert "assumed:" in proc.stdout

    def test_validate_failure_exit_1(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"seed": -2, "preset": "fig1"}))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 1
        assert "seed" in proc.stderr

    def test_validate_string_number_exit_1(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"preset": "fig1", "link": {"step_s": "0.1"}}))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 1
        assert "link.step_s must be positive, got '0.1'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", [
        '{"preset": "fig1", "seed": ' + "1" * 5000 + "}",      # beyond the digit limit
        '{"seed": 1, "preset": "fig1", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["digit_limit", "nesting"])
    def test_validate_unreadable_json_exit_1(self, tmp_path, text):
        # json.load raises ValueError and RecursionError here, not JSONDecodeError.
        path = tmp_path / "scn.json"
        path.write_text(text)
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"invalid scenario:\n  - {path}: ")
        assert "Traceback" not in proc.stderr

    def test_run_refused_input_exit_1(self, tmp_path, monkeypatch, capsys):
        # A refusal raised during the run is reported without a traceback.
        # The inputs known to reach one are now refused at load (see
        # test_run_refuses_at_load_exit_1), so the run here raises it.
        def refuse(*args, **kwargs):
            raise InvalidInputError("segment length 1 must be in [2, 150000]")

        monkeypatch.setattr(cli, "run", refuse)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(SHORT_FIG1))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.strip() == \
            "run failed: segment length 1 must be in [2, 150000]"

    # SHORT_FIG1's settled full-rate record is 20 s - 5 s.
    @pytest.mark.parametrize("override, problem", [
        ({"run": {"transient_discard_s": 15.0}, "outputs": {"psd_segment_s": 10.0}},
         "outputs.psd_segment_s=10 must be at least 2 samples of link.step_s and fit in "
         "the settled record run.fullrate_duration_s - run.transient_discard_s = 5 s"),
        ({"outputs": {"psd_segment_s": 1e-4}},
         "outputs.psd_segment_s=0.0001 must be at least 2 samples of link.step_s and fit "
         "in the settled record run.fullrate_duration_s - run.transient_discard_s = 15 s"),
        ({"run": {"transient_discard_s": 19.0}, "outputs": {"psd_segment_s": 0.5}},
         "link.step_s=0.0001 cannot count the 1 s gates of the settled record "
         "run.fullrate_duration_s - run.transient_discard_s = 1 s: "
         "record too short to decimate at this step"),
        ({"link": {"step_s": 3e-4}},
         "link.step_s=0.0003 cannot count the 1 s gates of the settled record "
         "run.fullrate_duration_s - run.transient_discard_s = 15 s: "
         "decimation step must be an integer multiple of tau0"),
    ], ids=["segment_past_record", "segment_of_one_sample", "record_under_two_gates",
            "step_not_dividing_gate"])
    def test_validate_refuses_what_the_fullrate_run_would(self, tmp_path, override, problem):
        # Each once passed validation and ended the run in "run failed: ...".
        data = json.loads(json.dumps(SHORT_FIG1))
        for table, values in override.items():
            data.setdefault(table, {}).update(values)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        proc = run_cli(["validate", str(path)])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["invalid scenario:", f"  - {problem}"]

    @pytest.mark.parametrize("override", [
        {"preset": "budget", "budget": {"contributions": [{"label": "a", "sigma_at_1s": "x"}]}},
        {"preset": "fig4", "comb": {"delta_hz": "abc"}},
        {"preset": "budget", "budget": {"nu_ref_offset_hz": "abc"}},
        {"preset": "fig1", "link": {"length_km": 1e300}},
        {"preset": "fig1", "controllers": {"crossover_hz": "x"}},
        {"preset": "fig1", "link": {"noise": {"diurnal_phase_rad": "x"}}},
        {"preset": "budget", "budget": {"record_mean_offset_hz": "x"}},
        {"preset": "fig1", "controllers": {"thermal_range_s": -1e-8}},
        {"preset": "fig1", "controllers": {"unity_gain_hz": 0}},
        {"preset": "budget", "budget": {"measured_sigma_1s": 1e300}},
        {"preset": "budget", "budget": {"contributions": [{"label": "a", "sigma_at_1s": 1e300}]}},
        {"preset": "fig1", "link": {"step_s": 1e-12}},
        {"preset": "fig1", "link": {"step_s": 1e-300}},
        {"preset": "fig1", "link": {"length_km": 2.39e7}},
        {"preset": "fig1", "outputs": {"psd_segment_s": 1e-4}},
        {"preset": "fig1", "outputs": {"psd_overlap": 0.999999}},
        {"preset": "fig1", "link": {"length_km": 1e300, "step_s": 1e-300}},
    ])
    def test_run_refuses_at_load_exit_1(self, tmp_path, override):
        # Each of these once passed validation and ended the run in a traceback
        # or in a run-time refusal.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"seed": 1, **override}))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("scenario validation failed:\n  - ")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_run_seed_fills_a_missing_seed(self, tmp_path, capsys):
        # --seed stands in for the scenario's seed: a file without one runs,
        # with the bytes of a file that holds that seed.
        outputs = {}
        for name, data, extra in (("held", dict(self.FAST, seed=3), []),
                                  ("filled", {"preset": "budget"}, ["--seed", "3"]),
                                  ("overridden", self.FAST, ["--seed", "3"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / name
            assert cli.main(["run", str(path), "--out", str(out), *extra]) == 0
            assert "(seed 3)" in capsys.readouterr().out
            report = json.loads((out / "run_report.json").read_text())
            assert report["seed"] == report["scenario"]["seed"] == 3
            outputs[name] = [(out / f).read_bytes() for f in report["manifest"]]
        assert outputs["filled"] == outputs["overridden"] == outputs["held"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("held", [True, False], ids=["file_seed", "no_file_seed"])
    def test_run_refuses_out_of_range_seed_at_load(self, tmp_path, capsys, seed, held):
        # Once this passed load and failed in the run, leaving an empty
        # output directory and no run report.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(self.FAST if held else {"preset": "budget"}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--seed", seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "scenario validation failed:",
            f"  - seed must be a 64-bit non-negative integer, got {seed}"]
        assert not out.exists()

    def test_forward_carrier_is_an_unknown_key(self, tmp_path, capsys):
        # No output read link.carrier_forward_hz, so it is no longer a
        # scenario key, and a scenario that sets it is refused.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"seed": 1, "preset": "fig1",
                                    "link": {"carrier_forward_hz": 1e9}}))
        problem = "  - unknown key 'link.carrier_forward_hz'"
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["invalid scenario:", problem]
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["scenario validation failed:", problem]
        assert not (tmp_path / "out").exists()

    def test_run_refuses_decimated_step_finer_than_servo(self, tmp_path):
        # This ran at load and to the end, but its decimated bins reach
        # 10 kHz, past the 0.1 ms servo's 5 kHz Nyquist: the servo's
        # sensitivity repeats every 1 / link.step_s.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({
            "seed": 1, "preset": "fig1",
            "run": {"decimated_step_s": 5e-5, "decimated_duration_s": 40.0},
            "outputs": {"adev_taus_s": [1, 2, 5, 10]}}))
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "scenario validation failed:",
            "  - run.decimated_step_s=5e-05 must not be finer than the servo's "
            "link.step_s=0.0001"]
        assert not (tmp_path / "out").exists()

    def test_run_without_integrator_corner(self, tmp_path):
        # integrator_corner_hz = 0 leaves ki = 0, where the decimated
        # model's sensitivity is 0/0 at DC unless its limit 0 is taken.
        data = json.loads(json.dumps(SHORT_FIG1))
        data["controllers"] = {"integrator_corner_hz": 0}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "closed_loop.csv").exists()

    def test_run_near_duplicate_taus(self, tmp_path):
        # Taus a hair apart name one multiple of their record's step, so
        # every Allan CSV has one row for them, as for exact duplicates.
        data = json.loads(json.dumps(SHORT_FIG1))
        data["outputs"].update(adev_taus_s=[1, 1.0000000001, 10],
                               fullrate_taus_s=[1, 1.0000000001, 2])
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        assert run_cli(["validate", str(path)]).returncode == 0
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "run_report.json").read_text())["manifest"]
        curves = [read_adev_csv(out / name) for name in manifest if name != "round_trip_psd.csv"]
        assert len(curves) == 6
        for curve in curves:            # three taus requested, two distinct
            assert len(curve) == 2 and curve.taus[0] == 1.0

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(self.FAST))
        out = tmp_path / "out"
        proc = run_cli(["run", str(path), "--out", str(out)])
        assert proc.returncode == 0
        assert (out / "budget.csv").exists()
        assert "wrote budget.csv" in proc.stdout

    def test_env_var_default_out_dir(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(self.FAST))
        out = tmp_path / "env_out"
        proc = run_cli(["run", str(path)], env={"FIBERLINK_OUT": str(out)})
        assert proc.returncode == 0
        assert (out / "budget.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unstable_loop_exit_1(self, tmp_path, command):
        # At 680 Hz only the far-end loop, behind the slower piezo, is
        # unstable; both commands refuse the scenario at load.
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"seed": 3, "preset": "fig1",
                                    "controllers": {"unity_gain_hz": 680.0}}))
        out = tmp_path / "out"
        proc = run_cli([command, str(path)] + (["--out", str(out)] if command == "run" else []))
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[1:] == [
            "  - the far-end loop is unstable, with 2 closed-loop pole(s) on or outside the "
            "unit circle, at controllers.unity_gain_hz=680, integrator_corner_hz=30, "
            "piezo_bandwidth_hz=5000 and 2 one-way delay steps of link.step_s=0.0001"]
        assert not out.exists()

    # A 4 s full-rate run and a 400 s decimated one, each a few ms; 200
    # examples take about 4 s.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(unity_gain_hz=st.floats(1.0, 1000.0),
           integrator_corner_hz=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0),
           rf_shifter_bandwidth_hz=st.floats(10.0, 1e6),
           piezo_bandwidth_hz=st.floats(10.0, 1e6),
           length_km=st.floats(15.0, 250.0))
    def test_validate_and_run_agree(self, **controllers):
        # Whatever load admits runs to the end, and what it refuses, run
        # refuses too: the same exit code, 0 or 1, and no exception.
        length_km = controllers.pop("length_km")
        scn = {"seed": 1, "preset": "fig1", "link": {"length_km": length_km},
               "controllers": controllers,
               "run": {"fullrate_duration_s": 4.0, "transient_discard_s": 1.0,
                       "decimated_duration_s": 400.0},
               "outputs": {"adev_taus_s": [1, 10, 100], "fullrate_taus_s": [1],
                           "psd_segment_s": 1.0}}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scn.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scn, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                validated = cli.main(["validate", path])
                ran = cli.main(["run", path, "--out", os.path.join(tmp, "out")])
        assert validated == ran in (0, 1), scn

    def test_compare_command(self, tmp_path, budget_report):
        c = fl.AdevCurve([1.0, 10.0], [2e-14, 2e-15], [9, 9], "standard")
        h = fl.AdevCurve([1.0, 10.0], [1e-14, 1e-15], [9, 9], "standard")
        write_adev_csv(tmp_path / "a.csv", c, seed=1)
        write_adev_csv(tmp_path / "b.csv", h, seed=1)
        proc = run_cli(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        assert proc.returncode == 0
        assert "max ratio 2" in proc.stdout

    @pytest.mark.parametrize("content", [b"tau_s,sigma,n_pairs\n1,abc,3\n",
                                         b"tau_s,sigma,n_pairs\n1,2e-14,2.5\n",
                                         b"\xff\xfe"],
                             ids=["non_number_cell", "fractional_n_pairs", "not_utf8"])
    def test_compare_refuses_malformed_csv(self, tmp_path, content):
        # Each once ended the command in a traceback.
        good = tmp_path / "good.csv"
        write_adev_csv(good, fl.AdevCurve([1.0], [1e-14], [9], "standard"))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        proc = run_cli(["compare", str(good), str(bad)])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"compare failed: {bad}: ")
        assert "Traceback" not in proc.stderr
