"""Streamed CSV writers against the per-row reference writers they replace."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberlink import io as fio
from fiberlink.errors import InvalidInputError
from fiberlink.series import AdevCurve, PhaseSeries, PsdEstimate

# The reference comparisons run the writers at this many rows a chunk, so
# their row counts straddle chunk boundaries at any ``io._CHUNK_ROWS``.
CHUNK = 8192
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


def ref_write_adev_csv(path, curve, seed=None):
    lines = fio.metadata_lines(seed, estimator=curve.estimator)
    for note in curve.notes:
        lines.append(f"# note: {note}")
    for tau in curve.omitted_taus:
        lines.append(f"# omitted: tau_s={_ref_fmt(tau)} (insufficient data)")
    lines.append("tau_s,sigma,n_pairs")
    for tau, sigma, n in zip(curve.taus, curve.sigmas, curve.n_pairs):
        lines.append(f"{_ref_fmt(tau)},{_ref_fmt(sigma)},{int(n)}")
    _ref_write(path, lines)


def ref_write_psd_csv(path, psd, seed=None, **extra):
    """One row per run of bins sharing ``round(bands * log10(f))`` (the DC bin
    alone): the mean frequency, the mean value, count x bin spacing."""
    bands = fio._BANDS_PER_DECADE
    freqs, values = psd.freqs.tolist(), psd.values.tolist()
    bin_hz = freqs[1] - freqs[0] if len(freqs) > 1 else psd.rbw_hz
    rows = {}
    for f, v in zip(freqs, values):
        rows.setdefault(round(bands * math.log10(f)) if f > 0 else "dc", []).append((f, v))
    lines = fio.metadata_lines(seed, bands_per_decade=bands, bin_hz=_ref_fmt(bin_hz),
                               welch_rbw_hz=_ref_fmt(psd.rbw_hz), **extra)
    lines.append("freq_hz,psd,rbw_hz")
    for members in rows.values():
        fs, vs = zip(*members)
        n = len(members)
        lines.append(f"{_ref_fmt(math.fsum(fs) / n)},{_ref_fmt(math.fsum(vs) / n)},"
                     f"{_ref_fmt(n * bin_hz)}")
    _ref_write(path, lines)


def ref_write_phase_csv(path, series, seed=None):
    lines = fio.metadata_lines(seed, label=series.label or "phase")
    lines.append("t_s,x_s")
    for ti, xi in zip(series.times(), series.samples):
        lines.append(f"{_ref_fmt(ti)},{_ref_fmt(xi)}")
    _ref_write(path, lines)


def ref_write_measurement_csv(path, record, seed=None):
    lines = fio.metadata_lines(seed, gate_s=_ref_fmt(record.gate_s))
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


def _quantized_record(n):
    """A gate record whose counted beat is quantized to 1 uHz near 68 Hz, with
    the optical offsets ``q * (68 - counted)`` that ``comb.count_chain`` makes."""
    beat = 68.0 + np.random.default_rng(n).standard_normal(n) * 1e-4
    counted = np.round(beat / 1e-6) * 1e-6
    return _record(Fraction(291_000_000_000_000_123, 10_000), 4e5 * (68.0 - counted),
                   counted=counted)


def _gate_column(tmp_path, record):
    path = tmp_path / "gates.csv"
    fio.write_measurement_csv(path, record)
    rows = path.read_text().splitlines()[2:]
    return [row.split(",")[2] for row in rows]


class TestStreamedWritersMatchReference:
    @pytest.fixture(autouse=True)
    def _chunk_rows(self, monkeypatch):
        monkeypatch.setattr(fio, "_CHUNK_ROWS", CHUNK)

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
                          ref_write_measurement_csv, rec)

    # A counter at 1 uHz resolution near 68 Hz repeats its readings, so these
    # files take the keyed form, across chunk boundaries.
    @pytest.mark.parametrize("n", ROW_COUNTS + [2 * CHUNK + 1])
    def test_measurement_counter_quantized(self, tmp_path, n):
        rec = _quantized_record(n)
        _assert_same_file(tmp_path, fio.write_measurement_csv,
                          ref_write_measurement_csv, rec)


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
# ``_write_rows`` against per-row ``%`` formatting, on chunks whose rows
# are a function of a repeating column (the keyed form) or not (the per-row
# form).

FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25e-300, 5e-324, 0.1, 68.000001]
INTS = [-2 ** 63, 2 ** 63 - 1, 0, -1, 7, -123_456, 10 ** 18]
STRINGS = ["", "-", "ab"]
CONVERSIONS = [("%.17g", FLOATS, np.float64), ("%.3e", FLOATS, np.float64),
               ("%d", INTS, np.int64), ("%06d", INTS, np.int64), ("%s", STRINGS, str)]


def _per_row_bytes(header_lines, row_fmt, chunks):
    rows = [row for chunk in chunks for row in zip(*(c.tolist() for c in chunk))]
    return "".join(line + "\n" for line in header_lines + [row_fmt % row for row in rows]).encode()


def _assert_rows_match(tmp_path, row_fmt, chunks):
    path = tmp_path / "rows.csv"
    fio._write_rows(path, ["# h", "a,b"], row_fmt, iter(chunks))
    assert path.read_bytes() == _per_row_bytes(["# h", "a,b"], row_fmt, chunks)


@st.composite
def row_files(draw):
    columns = draw(st.lists(st.sampled_from(CONVERSIONS), min_size=1, max_size=4))
    separators = draw(st.lists(st.sampled_from(["", ",", ".", ";x"]),
                               min_size=len(columns) + 1, max_size=len(columns) + 1))
    row_fmt = separators[0] + "".join(spec + sep for (spec, _, _), sep
                                      in zip(columns, separators[1:]))
    chunks = []
    for k in draw(st.lists(st.integers(1, 40), max_size=4)):
        chunks.append(tuple(np.array(draw(st.lists(st.sampled_from(pool), min_size=k,
                                                    max_size=k)), dtype=dtype)
                            for _, pool, dtype in columns))
    return row_fmt, chunks


class TestWriteRows:
    @settings(max_examples=150, deadline=None)
    @given(row_files())
    def test_matches_per_row_formatting(self, tmp_path_factory, file):
        row_fmt, chunks = file
        _assert_rows_match(tmp_path_factory.mktemp("rows"), row_fmt, chunks)

    def test_form_choice_in_one_file(self, tmp_path):
        # The index crosses 9,999 -> 10,000 (and runs down from -2**63 +
        # 10,013 reversed); -0.0, 0.0 and NaN are three keys, each fixing the
        # last column; 0.0 and -0.0 fix different values.
        index = np.arange(9_990, 10_014)
        keys = np.array([0.0, -0.0, math.nan, 1.5] * 6)
        fixed = np.array([5, 6, 7, 8] * 6)
        reverse = (index[::-1] + np.iinfo(np.int64).min, keys[::-1].copy(), fixed[::-1].copy())
        chunks = [(index, keys, fixed), (index, keys, np.arange(24)),
                  (index[:1], keys[:1], fixed[:1]), reverse]
        forms = [fio._keyed_rows(",%.17g,%d\n", chunk[1:]) is not None for chunk in chunks]
        assert forms == [True, False, False, True]
        _assert_rows_match(tmp_path, "%d,%.17g,%d", chunks)

    def test_gate_chunks_take_keyed_form(self, tmp_path, monkeypatch):
        # A counter-quantized gate record's full chunks are keyed by the
        # counted beat; its one-row last chunk is written per row.
        forms = []
        keyed_rows = fio._keyed_rows

        def spy(fmt, columns, derive=None):
            rows = keyed_rows(fmt, columns, derive)
            forms.append(rows is not None)
            return rows

        monkeypatch.setattr(fio, "_keyed_rows", spy)
        n = 2 * fio._CHUNK_ROWS + 1
        fio.write_measurement_csv(tmp_path / "g.csv", _quantized_record(n))
        assert forms == [True, True, False]

    def test_negative_zero_padded_integers(self, tmp_path):
        values = np.array([-2 ** 63, -5, -1, 0, 5, 123_456_789, 2 ** 63 - 1] * 3)
        _assert_rows_match(tmp_path, "%06d|%d|%01d", [(values, values, values)])

    def test_gate_writer_memory_flat_in_rows(self, tmp_path):
        # Peak traced memory over the input record, which exists beforehand.
        def peak(n):
            record = _quantized_record(n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fio.write_measurement_csv(tmp_path / "g.csv", record)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = peak(2 ** 16), peak(2 ** 19)
        assert large <= 1.1 * small, (small, large)

    def test_phase_writer_memory_flat_in_rows(self, tmp_path):
        # Peak traced memory over the input series, which exists beforehand:
        # the time column is made a chunk at a time, like the samples' rows.
        def peak(n):
            series = PhaseSeries(np.random.default_rng(n).standard_normal(n) * 1e-12, 1e-4)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fio.write_phase_csv(tmp_path / "x.csv", series)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = peak(2 ** 16), peak(2 ** 19)
        assert large <= 1.1 * small, (small, large)


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


# ----------------------------------------------------------------------
# The PSD CSV as the benchmark reads it (perfbench/checks.py: the standard
# library only, three fields a row, the mean of the rows in 0.9-1.1 Hz).

def test_fig1_psd_band_reads_as_in_memory(fig1_report):
    report, out = fig1_report
    with open(out / "round_trip_psd.csv", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip() and not line.startswith("#")]
    assert lines[0] == "freq_hz,psd,rbw_hz"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 3 for row in rows)
    band = [float(v) for f, v, _ in rows if 0.9 <= float(f) <= 1.1]
    assert band
    in_memory = report.results["fullrate"]["psd_rt"].band_mean(0.9, 1.1)
    assert abs(10 * math.log10(sum(band) / len(band) / in_memory)) <= 0.5
