"""Streamed CSV writers against the per-row reference writers they replace."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberlink import io as fio
from fiberlink.errors import InvalidInputError
from fiberlink.series import AdevCurve, PhaseSeries, PsdEstimate

CHUNK = fio._CHUNK_ROWS
ROW_COUNTS = [0, 1, CHUNK, CHUNK + 1]


# ----------------------------------------------------------------------
# Reference writers: one formatted string per row, the whole file joined.

def _ref_write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ref_fmt(x):
    return format(float(x), ".17g")


def _decimal_uhz(nominal_fraction, offset_hz):
    """Fixed-point decimal string at microhertz resolution."""
    total_uhz = round(nominal_fraction * 10 ** 6) + round(offset_hz * 1e6)
    sign = "-" if total_uhz < 0 else ""
    total_uhz = abs(int(total_uhz))
    return f"{sign}{total_uhz // 10 ** 6}.{total_uhz % 10 ** 6:06d}"


def ref_write_adev_csv(path, curve, seed=None, **extra):
    lines = fio.metadata_lines(seed, estimator=curve.estimator, **extra)
    for note in curve.notes:
        lines.append(f"# note: {note}")
    for tau in curve.omitted_taus:
        lines.append(f"# omitted: tau_s={_ref_fmt(tau)} (insufficient data)")
    lines.append("tau_s,sigma,n_pairs")
    for tau, sigma, n in zip(curve.taus, curve.sigmas, curve.n_pairs):
        lines.append(f"{_ref_fmt(tau)},{_ref_fmt(sigma)},{int(n)}")
    _ref_write(path, lines)


def ref_write_psd_csv(path, psd, seed=None, **extra):
    lines = fio.metadata_lines(seed, **extra)
    lines.append("freq_hz,psd,rbw_hz")
    for f, v in zip(psd.freqs, psd.values):
        lines.append(f"{_ref_fmt(f)},{_ref_fmt(v)},{_ref_fmt(psd.rbw_hz)}")
    _ref_write(path, lines)


def ref_write_phase_csv(path, series, seed=None, **extra):
    lines = fio.metadata_lines(seed, label=series.label or "phase", **extra)
    lines.append("t_s,x_s")
    for ti, xi in zip(series.times(), series.samples):
        lines.append(f"{_ref_fmt(ti)},{_ref_fmt(xi)}")
    _ref_write(path, lines)


def ref_write_measurement_csv(path, record, seed=None, **extra):
    lines = fio.metadata_lines(seed, gate_s=_ref_fmt(record.gate_s), **extra)
    lines.append("gate_index,counted_hz,f_opt_hz")
    for i, (c, off) in enumerate(zip(record.counted_hz, record.optical_offsets_hz)):
        lines.append(f"{i},{_ref_fmt(c)},{_decimal_uhz(record.optical_nominal_hz, off)}")
    _ref_write(path, lines)


# ----------------------------------------------------------------------

def _assert_same_file(tmp_path, new_writer, ref_writer, obj, **kwargs):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    new_writer(new, obj, seed=5, **kwargs)
    ref_writer(ref, obj, seed=5, **kwargs)
    assert new.read_bytes() == ref.read_bytes()


def _record(nominal, offsets, counted=None):
    offsets = np.asarray(offsets, dtype=float)
    if counted is None:
        counted = np.linspace(-3.0, 7.0, offsets.size)
    return SimpleNamespace(counted_hz=np.asarray(counted, dtype=float),
                           optical_nominal_hz=nominal,
                           optical_offsets_hz=offsets, gate_s=1.0)


def _gate_column(tmp_path, record):
    path = tmp_path / "gates.csv"
    fio.write_measurement_csv(path, record)
    rows = path.read_text().splitlines()[2:]
    return [row.split(",")[2] for row in rows]


class TestStreamedWritersMatchReference:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_psd(self, tmp_path, n):
        rng = np.random.default_rng(n)
        psd = PsdEstimate(np.arange(n) * 0.1, rng.random(n) * 1e-20, rbw_hz=0.1)
        _assert_same_file(tmp_path, fio.write_psd_csv, ref_write_psd_csv, psd,
                          carrier_hz=1.5e9)

    @pytest.mark.parametrize("n", [2, CHUNK, CHUNK + 1])
    def test_phase(self, tmp_path, n):
        # PhaseSeries needs at least two samples.
        rng = np.random.default_rng(n)
        series = PhaseSeries(rng.standard_normal(n) * 1e-12, 1e-4, label="closed_rt")
        _assert_same_file(tmp_path, fio.write_phase_csv, ref_write_phase_csv, series)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_adev(self, tmp_path, n):
        curve = AdevCurve(np.arange(1, n + 1, dtype=float), np.full(n, 3e-15),
                          np.arange(n) + 7, "overlapping", notes=("one-way",),
                          omitted_taus=(1e5,))
        _assert_same_file(tmp_path, fio.write_adev_csv, ref_write_adev_csv, curve)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_measurement(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rec = _record(Fraction(291_000_000_000_000_123, 10_000), rng.standard_normal(n) * 3.0,
                      counted=20e6 + rng.standard_normal(n))
        _assert_same_file(tmp_path, fio.write_measurement_csv,
                          ref_write_measurement_csv, rec, comb="fig4")


class TestMicrohertzDecimals:
    def _check(self, tmp_path, nominal, offsets):
        rec = _record(nominal, offsets)
        expected = [_decimal_uhz(nominal, off) for off in rec.optical_offsets_hz]
        assert _gate_column(tmp_path, rec) == expected
        return expected

    def test_negative_nominal(self, tmp_path):
        got = self._check(tmp_path, Fraction(-29_123_456_789_012_345_678, 10 ** 6),
                          [-2.5, -1e-6, 0.0, 1e-6, 3.75, 29_123_456.0])
        assert got[0].startswith("-29123456789014.")

    def test_totals_between_minus_one_hz_and_zero(self, tmp_path):
        offsets = [-0.999999, -0.5, -0.25, -1e-6, -4e-7, 0.0, 4e-7, 0.9999995]
        got = self._check(tmp_path, Fraction(0), offsets)
        assert got[:5] == ["-0.999999", "-0.500000", "-0.250000", "-0.000001", "0.000000"]
        self._check(tmp_path, Fraction(-1, 3), [0.0, 0.3, 0.333333, 0.4, -0.6])

    def test_half_microhertz_ties(self, tmp_path):
        ties = [o for o in ((k + 0.5) * 1e-6 for k in range(-60, 60))
                if (o * 1e6) % 1.0 == 0.5]
        assert any(o > 0 for o in ties) and any(o < 0 for o in ties)
        for nominal in (Fraction(0), Fraction(29_000_000_000_000), Fraction(-7, 2 * 10 ** 6),
                        Fraction(3, 2 * 10 ** 6)):
            self._check(tmp_path, nominal, ties)

    @settings(max_examples=60, deadline=None)
    @given(whole=st.integers(-10 ** 15, 10 ** 15), num=st.integers(-10 ** 7, 10 ** 7),
           offsets=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=20))
    def test_property_matches_reference(self, tmp_path_factory, whole, num, offsets):
        nominal = whole + Fraction(num, 2 * 10 ** 6)
        self._check(tmp_path_factory.mktemp("p"), nominal, offsets)

    @pytest.mark.parametrize("bad", [1e13, -1e13, 1e300, np.inf, np.nan])
    def test_offset_beyond_int64_refused(self, tmp_path, bad):
        with pytest.raises(InvalidInputError):
            fio.write_measurement_csv(tmp_path / "g.csv", _record(Fraction(0), [0.0, bad]))

    def test_largest_int64_offset_written_exactly(self, tmp_path):
        self._check(tmp_path, Fraction(0), [9.2e12, -9.2e12])

    @pytest.mark.parametrize("nominal", [2 ** 63 - 1, -2 ** 63])
    def test_total_beyond_int64_hz_refused(self, tmp_path, nominal):
        with pytest.raises(InvalidInputError):
            fio.write_measurement_csv(tmp_path / "g.csv", _record(Fraction(nominal), [0.0]))


# ----------------------------------------------------------------------
# Reading an Allan CSV back: malformed files are refused, not raised.

ADEV_HEADER = b"# metadata: version=0.1.0 seed=1 estimator=overlapping\ntau_s,sigma,n_pairs\n"
MALFORMED_ADEV = {
    "non_number_cell": ADEV_HEADER + b"1,abc,3\n",
    "fractional_n_pairs": ADEV_HEADER + b"1,2e-14,2.5\n",
    "n_pairs_beyond_int64": ADEV_HEADER + b"1,2e-14,100000000000000000000\n",
    "two_cells": ADEV_HEADER + b"1,2e-14\n",
    "not_utf8": b"\xff\xfe",
}


class TestReadAdevCsv:
    def test_empty_estimator_keeps_the_default(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"# metadata: estimator=\ntau_s,sigma,n_pairs\n1,2e-14,3\n")
        assert fio.read_adev_csv(path).estimator == "standard"

    @pytest.mark.parametrize("content", MALFORMED_ADEV.values(), ids=MALFORMED_ADEV.keys())
    def test_malformed_file_refused(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(InvalidInputError) as err:
            fio.read_adev_csv(path)
        assert str(path) in str(err.value)
        if content.startswith(ADEV_HEADER):
            assert "at line 3" in str(err.value)
