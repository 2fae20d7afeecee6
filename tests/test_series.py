import numpy as np
import pytest

import fiberlink as fl
from fiberlink.errors import InvalidInputError
from fiberlink.io import (read_adev_csv, write_adev_csv, write_phase_csv,
                          write_psd_csv)
from fiberlink.series import AdevCurve, FracFreqSeries, PhaseSeries, PsdEstimate


def test_phase_series_invariants():
    with pytest.raises(InvalidInputError):
        PhaseSeries([1.0], 1.0)                      # too short
    with pytest.raises(InvalidInputError):
        PhaseSeries([1.0, 2.0], 0.0)                 # tau0 <= 0
    with pytest.raises(InvalidInputError):
        PhaseSeries([1.0, np.nan], 1.0)              # non-finite
    x = PhaseSeries([0.0, 1e-12, 2e-12], 0.5, label="ramp")
    assert len(x) == 3
    assert x.duration == pytest.approx(1.5)
    assert np.allclose(x.times(), [0.0, 0.5, 1.0])


def test_frac_freq_invariants():
    with pytest.raises(InvalidInputError):
        FracFreqSeries([1.0, np.inf], 1.0)
    y = FracFreqSeries([1e-14], 2.0)
    assert len(y) == 1


def test_adev_curve_invariants():
    with pytest.raises(InvalidInputError):
        AdevCurve([2.0, 1.0], [1e-14, 1e-14], [5, 5], "standard")   # not increasing
    with pytest.raises(InvalidInputError):
        AdevCurve([1.0, 2.0], [-1e-14, 1e-14], [5, 5], "standard")  # negative sigma
    with pytest.raises(InvalidInputError):
        AdevCurve([1.0], [1e-14], [0], "standard")                   # n_pairs < 1
    c = AdevCurve([1.0, 2.0], [2e-14, 1e-14], [9, 4], "standard")
    assert c.sigma_at(2.0) == 1e-14
    with pytest.raises(InvalidInputError):
        c.sigma_at(3.0)


def test_psd_invariants():
    with pytest.raises(InvalidInputError):
        PsdEstimate([1.0, 1.0], [0.1, 0.1], 1.0)     # not strictly increasing
    with pytest.raises(InvalidInputError):
        PsdEstimate([1.0, 2.0], [0.1, -0.1], 1.0)    # negative value
    p = PsdEstimate([0.5, 1.0, 2.0], [1.0, 2.0, 4.0], 0.5)
    assert p.bin_hz == 0.5
    assert PsdEstimate([3.0], [1.0], 0.25).bin_hz == 0.25
    assert p.band_mean(0.9, 2.1) == pytest.approx(3.0)


def test_adev_csv_round_trip(tmp_path):
    c = AdevCurve([1.0, 10.0], [1.2e-14, 3.4e-15], [99, 9], "overlapping",
                  notes=("one-way deduced from round trip (/2, correlated noise)",))
    path = tmp_path / "adev.csv"
    write_adev_csv(path, c, seed=42)
    back = read_adev_csv(path)
    assert np.array_equal(back.taus, c.taus)
    assert np.array_equal(back.sigmas, c.sigmas)
    assert np.array_equal(back.n_pairs, c.n_pairs)
    assert back.estimator == "overlapping"
    assert back.notes == c.notes
    text = path.read_text()
    assert text.startswith("# metadata:")
    assert "seed=42" in text


def test_phase_and_psd_csv(tmp_path):
    x = PhaseSeries([0.0, 1e-12, 2e-12], 1.0)
    write_phase_csv(tmp_path / "x.csv", x, seed=7)
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[1] == "t_s,x_s"
    assert len(lines) == 5

    # On a 1 Hz grid up to 7 Hz only 6 and 7 Hz share a band
    # (round(10 * log10(f)) = 8), so 8 bins make 7 rows.
    values = np.full(8, 1e-12)
    values[7] = 3e-12
    write_psd_csv(tmp_path / "p.csv", PsdEstimate(np.arange(8.0), values, 1.5), seed=7)
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert "bands_per_decade=10 bin_hz=1 welch_rbw_hz=1.5" in lines[0]
    assert lines[1] == "freq_hz,psd,rbw_hz"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    assert rows == [(float(f), 1e-12, 1.0) for f in range(6)] + [(6.5, 2e-12, 2.0)]
