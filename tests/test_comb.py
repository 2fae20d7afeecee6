from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.comb import (COUNTER_RESOLUTION_HZ, BudgetEntry, CombParams,
                            CounterChainConfig, FreqSeries, absolute_freq_estimate,
                            count_chain, optical_from_rep_rate, rep_rate_from_optical,
                            rep_rate_lock, stability_budget)
from fiberlink.errors import ConfigError, InvalidInputError
from fiberlink.series import FracFreqSeries

PARAMS = CombParams(q=29100, delta_hz="40000000", sign=+1,
                    f_rep_nominal_hz="995000000")


class TestCombArithmetic:
    def test_simple_product(self):
        p = CombParams(q=29100, delta_hz=0, sign=+1, f_rep_nominal_hz=10 ** 9)
        assert optical_from_rep_rate(p, 10 ** 9) == Fraction(291, 10) * 10 ** 12
        assert float(optical_from_rep_rate(p, 10 ** 9)) == pytest.approx(2.91e13)

    def test_sign_flip_changes_by_2_delta(self):
        up = CombParams(q=29100, delta_hz="40000000", sign=+1,
                        f_rep_nominal_hz="995000000")
        dn = CombParams(q=29100, delta_hz="40000000", sign=-1,
                        f_rep_nominal_hz="995000000")
        f_r = Fraction("995000000.000001")
        assert optical_from_rep_rate(up, f_r) - optical_from_rep_rate(dn, f_r) \
            == 2 * Fraction(40_000_000)

    def test_round_trip_exact(self):
        # f_opt -> f_rep -> f_opt at microhertz-grid inputs is exact.
        f_opt = PARAMS.optical_nominal_hz + Fraction(123456789, 10 ** 6)
        f_rep = rep_rate_from_optical(PARAMS, f_opt)
        back = optical_from_rep_rate(PARAMS, f_rep)
        assert back == f_opt

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=-10 ** 12, max_value=10 ** 12))
    def test_round_trip_exact_property(self, uhz_offset):
        f_opt = PARAMS.optical_nominal_hz + Fraction(uhz_offset, 10 ** 6)
        assert optical_from_rep_rate(PARAMS, rep_rate_from_optical(PARAMS, f_opt)) \
            == f_opt

    def test_fractional_perturbation_transfer(self):
        # eps on f_rep maps to eps * (q f_r)/(q f_r + delta) on the output.
        eps = 1e-12
        f_r = PARAMS.f_rep_nominal_hz
        base = optical_from_rep_rate(PARAMS, f_r)
        pert = optical_from_rep_rate(PARAMS, f_r * (1 + Fraction(eps)))
        measured = float((pert - base) / base)
        expected = eps * float(PARAMS.q * f_r / base)
        assert measured == pytest.approx(expected, rel=1e-9)
        assert measured == pytest.approx(eps, rel=2e-6)

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            CombParams(q=0, delta_hz=0, sign=1, f_rep_nominal_hz=1e9)
        with pytest.raises(InvalidInputError):
            CombParams(q=10, delta_hz=0, sign=2, f_rep_nominal_hz=1e9)
        with pytest.raises(InvalidInputError):
            optical_from_rep_rate(PARAMS, -1.0)


class TestRepRateLock:
    def test_zero_input_constant_nominal(self):
        y = FracFreqSeries(np.zeros(10), 1.0)
        f = rep_rate_lock(y, PARAMS)
        assert f.nominal_hz == PARAMS.f_rep_nominal_hz
        assert np.all(f.offsets_hz == 0.0)

    def test_constant_offset_transfer(self):
        y = FracFreqSeries(np.full(10, 1e-14), 1.0)
        f = rep_rate_lock(y, PARAMS)
        frac = f.offsets_hz[0] / float(f.nominal_hz)
        assert frac == pytest.approx(1e-14, rel=2e-6)

    def test_allan_transfer(self):
        rng = np.random.default_rng(3)
        y = FracFreqSeries(rng.standard_normal(20_000) * 3e-14, 1.0)
        f = rep_rate_lock(y, PARAMS)
        a_in = fl.allan_deviation(y, [1, 10]).sigmas
        a_out = fl.allan_deviation(f.fractional(), [1, 10]).sigmas
        assert np.allclose(a_in, a_out, rtol=1e-4)


class TestCountChain:
    def test_trivial_beat(self):
        # Perfect reference, constant f_rep: every gate reads the exact beat.
        y = FracFreqSeries(np.zeros(20), 1.0)
        f = rep_rate_lock(y, PARAMS)
        ref = FracFreqSeries(np.zeros(20), 1.0)
        rec = count_chain(f, ref, CounterChainConfig(), PARAMS)
        assert np.allclose(rec.counted_hz, 68.0)
        assert np.all(rec.optical_offsets_hz == 0.0)
        # nominal IF is 5 MHz: LO 1 GHz against 995 MHz
        assert float(CounterChainConfig().lo_freq_hz - PARAMS.f_rep_nominal_hz) \
            == pytest.approx(5e6)

    def test_no_bias_within_quantization(self):
        y = FracFreqSeries(np.full(50, 1e-13), 1.0)
        f = rep_rate_lock(y, PARAMS)
        ref = FracFreqSeries(np.zeros(50), 1.0)
        rec = count_chain(f, ref, CounterChainConfig(), PARAMS)
        f_opt = float(PARAMS.optical_nominal_hz)
        recovered = rec.mean_optical_offset_hz() / f_opt
        quant_bound = PARAMS.q * COUNTER_RESOLUTION_HZ / f_opt
        assert abs(recovered - 1e-13) <= quant_bound

    def test_reference_noise_enters_comparison(self):
        # 8e-15 white-FM reference, perfect optical input: the recovered
        # optical Allan at 1 s reads the reference noise back.
        rng = np.random.default_rng(6)
        n = 20_000
        y_opt = FracFreqSeries(np.zeros(n), 1.0)
        f = rep_rate_lock(y_opt, PARAMS)
        ref = FracFreqSeries(rng.standard_normal(n) * 8e-15, 1.0)
        rec = count_chain(f, ref, CounterChainConfig(), PARAMS)
        a = fl.allan_deviation(rec.optical_fractional(), [1.0]).sigmas[0]
        assert a == pytest.approx(8e-15, rel=0.10)

    def test_beat_outside_filter_is_config_error(self):
        # A large repetition-rate excursion pushes the beat out of the
        # 10 Hz filter placement.
        y = FracFreqSeries(np.full(10, 3e-7), 1.0)   # ~8.7 Hz at 29 THz
        f = rep_rate_lock(y, PARAMS)
        ref = FracFreqSeries(np.zeros(10), 1.0)
        with pytest.raises(ConfigError):
            count_chain(f, ref, CounterChainConfig(), PARAMS)

    def test_lo_below_rep_rate_rejected(self):
        cfg = CounterChainConfig(lo_freq_hz="900000000")
        y = FracFreqSeries(np.zeros(10), 1.0)
        f = rep_rate_lock(y, PARAMS)
        with pytest.raises(ConfigError):
            count_chain(f, FracFreqSeries(np.zeros(10), 1.0), cfg, PARAMS)

    def test_gate_averaging(self):
        # 10 samples per 1 s gate; filter-as-averaging uses them all.
        tau0 = 0.1
        n = 200
        y = FracFreqSeries(np.zeros(n), tau0)
        f = rep_rate_lock(y, PARAMS)
        ref = FracFreqSeries(np.zeros(n), tau0)
        rec = count_chain(f, ref, CounterChainConfig(), PARAMS)
        assert len(rec) == 20
        assert rec.gate_s == 1.0


class TestStabilityBudget:
    def test_exact_quadrature_zero(self):
        res = stability_budget(5.0, [BudgetEntry("a", 3.0), BudgetEntry("b", 4.0)])
        assert res.residual_upper_bound == 0.0
        assert not res.clamped

    def test_reported_contribution_list(self):
        res = stability_budget(3e-14, [BudgetEntry("optical_link", 8e-15),
                                       BudgetEntry("reference", 8e-15)])
        expected = np.sqrt((3e-14) ** 2 - 2 * (8e-15) ** 2)
        assert res.residual_upper_bound == pytest.approx(expected, rel=1e-12)
        assert res.residual_upper_bound == pytest.approx(2.77e-14, rel=0.01)

    def test_clamp_flag_with_laser_term(self):
        res = stability_budget(3e-14, [BudgetEntry("laser", 3e-14),
                                       BudgetEntry("optical_link", 8e-15),
                                       BudgetEntry("reference", 8e-15)])
        assert res.residual_upper_bound == 0.0
        assert res.clamped

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(min_value=0, max_value=1e-13),
           st.lists(st.floats(min_value=0, max_value=1e-13), min_size=0, max_size=4),
           st.floats(min_value=0, max_value=1e-13))
    def test_monotonicity(self, measured, sigmas, extra):
        entries = [BudgetEntry(f"c{i}", s) for i, s in enumerate(sigmas)]
        base = stability_budget(measured, entries)
        more = stability_budget(measured, entries + [BudgetEntry("x", extra)])
        assert more.residual_upper_bound <= base.residual_upper_bound + 1e-30

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            stability_budget(-1.0, [])
        with pytest.raises(InvalidInputError):
            stability_budget(1.0, [BudgetEntry("bad", -0.1)])


class TestAbsoluteFreqEstimate:
    @staticmethod
    def _direct_record(offset_hz, n_gates=8):
        # Records built directly: unit oracle for the estimator itself,
        # without the counter's q-scaled quantization grid.
        return fl.MeasurementRecord(
            counted_hz=np.full(n_gates, 68.0 - offset_hz / PARAMS.q),
            optical_nominal_hz=PARAMS.optical_nominal_hz,
            optical_offsets_hz=np.full(n_gates, float(offset_hz)),
            gate_s=1.0)

    @staticmethod
    def _chain_record(offset_hz, n_gates=8):
        f_opt = float(PARAMS.optical_nominal_hz)
        y = FracFreqSeries(np.full(n_gates, offset_hz / f_opt), 1.0)
        f = rep_rate_lock(y, PARAMS)
        ref = FracFreqSeries(np.zeros(n_gates), 1.0)
        return count_chain(f, ref, CounterChainConfig(), PARAMS)

    def test_identical_records_at_reference(self):
        recs = [self._chain_record(0.0) for _ in range(3)]
        mean, sigma = absolute_freq_estimate(recs, PARAMS.optical_nominal_hz)
        assert mean == 0.0 and sigma == 0.0

    def test_two_point_std(self):
        recs = [self._direct_record(-1.0), self._direct_record(+1.0)]
        mean, sigma = absolute_freq_estimate(recs, PARAMS.optical_nominal_hz)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert sigma == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_needs_two_records(self):
        with pytest.raises(InvalidInputError):
            absolute_freq_estimate([self._direct_record(0.0)], 1e13)

    def test_synthetic_population_recovery(self):
        rng = np.random.default_rng(17)
        true_offsets = 3.9 + 10.0 * rng.standard_normal(10)
        recs = [self._direct_record(off) for off in true_offsets]
        mean, sigma = absolute_freq_estimate(recs, PARAMS.optical_nominal_hz)
        assert mean == pytest.approx(np.mean(true_offsets), abs=1e-9)
        assert sigma == pytest.approx(np.std(true_offsets, ddof=1), rel=1e-9)

    def test_chain_records_recover_offsets_to_quantization(self):
        # Through the full chain the recovery is exact up to the counter
        # resolution scaled by q.
        offs = [-1.0, 2.5, 7.25]
        recs = [self._chain_record(o) for o in offs + [0.0]]
        mean, _ = absolute_freq_estimate(recs, PARAMS.optical_nominal_hz)
        quant = PARAMS.q * COUNTER_RESOLUTION_HZ / 2
        assert mean == pytest.approx(np.mean(offs + [0.0]), abs=quant)


class TestQuadratureTransfer:
    def test_independent_white_fm_components_add_in_quadrature(self):
        rng = np.random.default_rng(8)
        n = 30_000
        y_opt = FracFreqSeries(rng.standard_normal(n) * 3e-14, 1.0)
        y_ref = FracFreqSeries(rng.standard_normal(n) * 8e-15, 1.0)
        y_link = FracFreqSeries(rng.standard_normal(n) * 8e-15, 1.0)
        f = rep_rate_lock(y_opt, PARAMS)
        ref = FracFreqSeries(y_ref.samples + y_link.samples, 1.0)
        rec = count_chain(f, ref, CounterChainConfig(), PARAMS)
        a = fl.allan_deviation(rec.optical_fractional(), [1.0]).sigmas[0]
        expected = np.sqrt((3e-14) ** 2 + (8e-15) ** 2 + (8e-15) ** 2)
        assert a == pytest.approx(expected, rel=0.15)
