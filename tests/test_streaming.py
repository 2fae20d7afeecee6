"""The chunked full-rate pipeline: any chunk size gives the bytes of one
pass over the whole record, and memory does not grow with the run."""

import json
import tracemalloc

import numpy as np
import pytest

import fiberlink as fl
from fiberlink import cli, scenario
from fiberlink.errors import DivergenceError
from fiberlink.scenario import RunReport, _run_fullrate

# A 4 s full-rate run at a 2 ms step (2000 samples): 800 km gives m = 2
# delay steps, and the loop gains are scaled down to stay stable at that
# delay.  Gates are 500 samples; the 0.5 s PSD segments give 13 segments.
SMALL = {
    "seed": 11, "preset": "fig1",
    "link": {"length_km": 800.0, "step_s": 2e-3,
             "noise": {"burst_rate_per_s": 0.0}},
    "controllers": {"unity_gain_hz": 10.0, "integrator_corner_hz": 1.0},
    "run": {"fullrate_duration_s": 4.0, "transient_discard_s": 0.5},
    "outputs": {"fullrate_taus_s": [1], "psd_segment_s": 0.5},
}
M = 2
N = 2000


def _scenario(**overrides):
    data = json.loads(json.dumps(SMALL))
    for table, values in overrides.items():
        for key, value in values.items():
            if isinstance(value, dict):
                data[table].setdefault(key, {}).update(value)
            else:
                data.setdefault(table, {})[key] = value
    return fl.load_scenario(data)


CASES = {
    # About 8 pulses of 250 samples, each straddling several chunk edges.
    "bursts": _scenario(link={"noise": {"burst_rate_per_s": 2.0,
                                        "burst_duration_s": 0.5}}),
    "walk": _scenario(link={"noise": {"walk_fm_h": 1e-24}}),
    "independent": _scenario(controllers={"topology": "independent"},
                             link={"noise": {"burst_rate_per_s": 1.0,
                                             "burst_duration_s": 0.3}}),
    "series": _scenario(),
}


def _fullrate(scn, chunk, monkeypatch):
    monkeypatch.setattr(scenario, "_CHUNK", chunk)
    report = RunReport({}, (), 0)
    return _run_fullrate(scn, 5, report), report.warnings


def _assert_same(a, b):
    for name in ("closed_rt", "closed_one_way", "open_rt"):
        assert np.array_equal(a["counted"][name].samples, b["counted"][name].samples)
        assert a["counted"][name].label == b["counted"][name].label
        for field in ("taus", "sigmas", "n_pairs"):
            assert np.array_equal(getattr(a["curves"][name], field),
                                  getattr(b["curves"][name], field))
    assert np.array_equal(a["psd_rt"].freqs, b["psd_rt"].freqs)
    assert np.array_equal(a["psd_rt"].values, b["psd_rt"].values)
    assert a["psd_rt"].rbw_hz == b["psd_rt"].rbw_hz


# One-sample chunks are slow (2000 chunks), so only the burst case runs them.
@pytest.mark.parametrize("case, chunk", [("bursts", 1)] + [
    (case, chunk) for case in sorted(CASES) for chunk in (3, 2 * M + 1, 777)])
def test_chunked_equals_one_chunk(case, chunk, monkeypatch):
    assert N % 777 != 0
    whole, whole_warnings = _fullrate(CASES[case], N, monkeypatch)
    part, part_warnings = _fullrate(CASES[case], chunk, monkeypatch)
    _assert_same(whole, part)
    assert whole_warnings == part_warnings


def test_settled_points_own_their_memory(monkeypatch):
    full, _ = _fullrate(CASES["series"], 3, monkeypatch)
    assert "series" not in full
    for series in full["counted"].values():
        assert series.samples.base is None and series.samples.size == 4


# Just beyond the stability edge: the far-end loop diverges at step 406.
DIVERGING = _scenario(controllers={"unity_gain_hz": 40.0})


def _divergence(chunk, monkeypatch):
    with pytest.raises(DivergenceError) as err:
        _fullrate(DIVERGING, chunk, monkeypatch)
    return err.value


@pytest.mark.parametrize("chunk", [3, 2 * M + 1, 101])
def test_divergence_at_the_same_step(chunk, monkeypatch):
    whole = _divergence(N, monkeypatch)
    part = _divergence(chunk, monkeypatch)
    assert part.step == whole.step > chunk
    assert str(part) == str(whole)


def test_chunked_divergence_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(scenario, "_CHUNK", 3)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(DIVERGING.data))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert "unstable" in report["error"]


def _peak_bytes(duration_s, walk_fm_h):
    scn = fl.load_scenario({
        "seed": 2, "preset": "fig1",
        "link": {"noise": {"walk_fm_h": walk_fm_h}},
        "run": {"fullrate_duration_s": duration_s, "transient_discard_s": 5.0},
        "outputs": {"fullrate_taus_s": [1, 2, 4], "psd_segment_s": 2.0}})
    tracemalloc.start()
    try:
        _run_fullrate(scn, 2, RunReport({}, (), 2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("walk_fm_h", [0.0, 1e-36])
def test_memory_flat_in_fullrate_duration(walk_fm_h):
    """Four times the full-rate samples, at most 1.1 times the peak.

    The runs have 14 and 74 PSD segments; Welch holds one segment and one
    running sum of periodograms whatever their number.  Walk FM is drawn
    chunk by chunk like every other noise stream.
    """
    _peak_bytes(20.0, walk_fm_h)    # warm caches (FFT plans)
    short = _peak_bytes(20.0, walk_fm_h)
    long = _peak_bytes(80.0, walk_fm_h)
    assert long <= 1.1 * short, (short, long)
