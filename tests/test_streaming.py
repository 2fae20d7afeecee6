"""The chunked full-rate pipeline: any chunk size gives the bytes of one
pass over the whole record, memory does not grow with the run, and the
worker thread that draws the noise ends with the run."""

import dataclasses
import importlib.util
import json
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest

import fiberlink as fl
from fiberlink import cli, scenario
from fiberlink.control import (RUN_TOPOLOGIES, ControllerConfig, LinkLoopConfig,
                               run_closed_loop)
from fiberlink.errors import DivergenceError
from fiberlink.link import ActuatorState
from fiberlink.scenario import RunReport, _run_decimated, _run_fullrate

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


def _arrays(obj):
    """Every array reachable from ``obj`` through dicts, sequences and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _recorded_loop(monkeypatch):
    """``(noise records, result)`` of each ``run_closed_loop`` call of a run."""
    calls = []
    loop = scenario.run_closed_loop

    def record(cfg, *records, probe_det, state):
        result = loop(cfg, *records, probe_det=probe_det, state=state)
        calls.append((records + (probe_det,), result))
        return result

    monkeypatch.setattr(scenario, "run_closed_loop", record)
    return calls


def test_settled_points_own_their_memory(monkeypatch):
    calls = _recorded_loop(monkeypatch)
    full, _ = _fullrate(CASES["series"], 3, monkeypatch)
    assert "series" not in full
    for series in full["counted"].values():
        assert series.samples.base is None and series.samples.size == 4
    # Each chunk's five noise records lie in one of two slots of one array,
    # used in turn, so a slot is written again two chunks later: no output
    # of the run and no loop result or state may keep a view of it.
    (slots,) = {id(r.base): r.base for records, _ in calls for r in records}.values()
    firsts = [records[0] for records, _ in calls]
    assert all(np.shares_memory(a, b) for a, b in zip(firsts, firsts[2:]))
    assert not any(np.shares_memory(a, b) for a, b in zip(firsts, firsts[1:]))
    kept = list(_arrays(full)) + [a for _, result in calls for a in _arrays(result)]
    assert len(kept) > 5 * len(calls)
    assert not any(np.shares_memory(a, slots) for a in kept)


def _traced_targets():
    """perfbench's ``(owner, attribute, span key, work counter)`` targets."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets()


def test_worker_calls_no_traced_function(monkeypatch):
    # perfbench's tracer keeps one span stack and is not thread-safe, so
    # every function it wraps must run on the calling thread; the worker
    # only draws and mixes noise.
    callers = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            callers.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, _, _ in _traced_targets():
        monkeypatch.setattr(owner, attr, spy(attr, getattr(owner, attr)))
    monkeypatch.setattr(scenario, "detector_noise",
                        spy("detector_noise", scenario.detector_noise))
    _fullrate(CASES["bursts"], 777, monkeypatch)
    me = threading.get_ident()
    assert me not in callers.pop("detector_noise")
    assert "run_closed_loop" in callers and "__post_init__" in callers
    assert all(threads == {me} for threads in callers.values()), callers


# Just beyond the stability edge: the far-end loop diverges at step 406.
# Load refuses an unstable loop, so this one is built unvalidated.
DIVERGING = dataclasses.replace(CASES["series"],
                                data=json.loads(json.dumps(CASES["series"].data)))
DIVERGING["controllers"]["unity_gain_hz"] = 40.0


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


def test_worker_ends_with_the_run(monkeypatch):
    before = threading.active_count()
    _fullrate(CASES["series"], 777, monkeypatch)
    assert threading.active_count() == before


def test_worker_ends_with_a_divergence(monkeypatch):
    before = threading.active_count()
    err = _divergence(3, monkeypatch)
    assert threading.active_count() == before
    assert err.step == 406
    assert str(err) == ("far-end correction reached 1.13677e-06 s at step 406, beyond the "
                        "limit 1.00013e-06 s; the loop is unstable at these settings")


def test_worker_error_reaches_the_caller(monkeypatch):
    # The second chunk's noise fails on the worker while the first chunk runs.
    draws = []
    detector_noise = scenario.detector_noise

    def failing(*args, **kwargs):
        draws.append(threading.get_ident())
        if len(draws) == 4:
            raise RuntimeError("detector noise source failed")
        return detector_noise(*args, **kwargs)

    monkeypatch.setattr(scenario, "detector_noise", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="detector noise source failed"):
        _fullrate(CASES["series"], 777, monkeypatch)
    assert threading.active_count() == before
    assert len(draws) >= 4 and threading.get_ident() not in draws


def test_chunked_divergence_exits_2(tmp_path, monkeypatch):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(DIVERGING.data))
    assert cli.main(["validate", str(path)]) == 1
    # The engines' own divergence rule, reached with load's check set aside.
    monkeypatch.setattr(scenario, "_unstable_poles", lambda *args: 0)
    monkeypatch.setattr(scenario, "_CHUNK", 3)
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


def test_memory_at_the_first_welch_transform(monkeypatch):
    """A 90 s ``fig1`` full-rate run holds at most 3.75 of its 600,000-sample
    PSD segments (tracemalloc) when its first segment is transformed.

    Welch holds 3 segments: its buffer, half its symmetric window, its
    complex spectrum and its running sum; the samples the next segment
    shares are set aside (half a segment).  The chunk's counted servo
    records are released once counted, except the round trip, which Welch
    takes in radians in its own memory.  It read 4.67 segments with the
    whole window, the chunk's loop result and a radians copy live."""
    scn = fl.load_scenario({"seed": 1, "preset": "fig1",
                            "run": {"fullrate_duration_s": 90.0},
                            "outputs": {"fullrate_taus_s": [1, 2, 4]}})
    segment = round(scn["outputs"]["psd_segment_s"] / scn["link"]["step_s"])
    assert segment == 600_000
    rfft, live = np.fft.rfft, []

    def traced(x, *args, **kwargs):
        if x.size == segment and not live:
            live.append(tracemalloc.get_traced_memory()[0])
        return rfft(x, *args, **kwargs)

    _run_fullrate(CASES["series"], 1, RunReport({}, (), 1))    # imports
    monkeypatch.setattr(np.fft, "rfft", traced)
    tracemalloc.start()
    try:
        _run_fullrate(scn, 1, RunReport({}, (), 1))
    finally:
        tracemalloc.stop()
    (held,) = live
    assert held <= 3.75 * 8 * segment, held / (8 * segment)


# The decimated model over 1,001 samples at 1 s: walk FM and the closed
# floor on, about 20 bursts of 31 samples for each of the three streams,
# and a thermal range small enough that the slow correction warns.  It
# asks for the series, so the open record is returned too.
DECIMATED = fl.load_scenario({
    "seed": 4, "preset": "fig1",
    "link": {"noise": {"walk_fm_h": 1e-30, "burst_rate_per_s": 0.02,
                       "burst_amp_median_s": 1e-10}},
    "controllers": {"thermal_range_s": 1e-11},
    "run": {"decimated_duration_s": 1000.0},
    "outputs": {"adev_taus_s": [1, 10, 100, 250], "write_decimated_series": True}})


# Both loops open: the closed record is the two fibers' round trip, white
# parts and all, and nothing warns.
DECIMATED_OFF = fl.load_scenario(dict(DECIMATED.data, controllers=dict(
    DECIMATED["controllers"], topology="off")))


def _decimated(chunk, monkeypatch, scn=DECIMATED):
    monkeypatch.setattr(scenario, "_CHUNK", chunk)
    report = RunReport({}, (), 0)
    return _run_decimated(scn, 6, report), report.warnings


@pytest.mark.parametrize("chunk, scn", [
    (1, DECIMATED), (7, DECIMATED), (777, DECIMATED),
    (1, DECIMATED_OFF), (7, DECIMATED_OFF), (777, DECIMATED_OFF),
], ids=["1", "7", "777", "off-1", "off-7", "off-777"])
def test_decimated_chunked_equals_one_chunk(chunk, scn, monkeypatch):
    assert DECIMATED["controllers"]["closed_floor_walk_fm_h"] > 0
    whole, whole_warnings = _decimated(1001, monkeypatch, scn)
    part, part_warnings = _decimated(chunk, monkeypatch, scn)
    for name in ("open_rt", "closed_rt"):
        assert whole["series"][name].samples.tobytes() == part["series"][name].samples.tobytes()
        for field in ("taus", "sigmas", "n_pairs"):
            assert np.array_equal(getattr(whole["curves"][name], field),
                                  getattr(part["curves"][name], field))
    assert part_warnings == whole_warnings
    if scn is DECIMATED_OFF:
        assert part_warnings == []
    else:
        assert len(part_warnings) == 1 and "thermal range" in part_warnings[0]


def test_decimated_memory_in_records(monkeypatch):
    """A 10-day decimated model peaks at no more than 3.1 records of its
    864,001 samples (tracemalloc), where its arrays were once 8.1.  Its
    peak, 3.07 records, is now the open record's Allan stage: the open
    record, the padded slow sum and one work buffer.  The open record is
    released after its curve (3.23 records when it was kept to the end), so
    the loop suppression call peaks at 2.23 records, the padded slow sum
    and its spectrum: its inverse transform writes over that sum instead of
    a new array, its sensitivity's work arrays are a few blocks of 2^13
    bins, and the closed record is built over the suppressed sum.  The
    traced peak is reset when the suppression starts, so the whole run's is
    the larger of the peak before that call and the peak from it on.

    tracemalloc sees numpy's arrays only, so the open record, which a run
    maps from the system, is allocated here with ``np.empty``.  pocketfft's
    plan and scratch, about 2 records at this length, are not traced, so the
    process's resident peak falls in the suppression, not in an Allan
    stage."""
    scn = fl.load_scenario({
        "seed": 3, "preset": "fig1", "link": {"noise": {"walk_fm_h": 1e-36}},
        "run": {"decimated_duration_s": 864000.0},
        "outputs": {"adev_taus_s": [1, 10, 100, 1000, 10000, 86400]}})
    _run_decimated(DECIMATED, 3, RunReport({}, (), 3))     # imports, FFT plans
    suppression, earlier_peaks, suppression_peaks = scenario.loop_suppression, [], []

    def traced(*args, **kwargs):
        earlier_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        closed = suppression(*args, **kwargs)
        suppression_peaks.append(tracemalloc.get_traced_memory()[1])
        return closed

    monkeypatch.setattr(scenario, "loop_suppression", traced)
    monkeypatch.setattr(scenario, "_mapped", np.empty)    # traced like the other records
    tracemalloc.start()
    try:
        _run_decimated(scn, 3, RunReport({}, (), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record = 8 * 864_001
    (earlier_peak,) = earlier_peaks
    assert max(earlier_peak, peak) <= 3.1 * record, (earlier_peak / record, peak / record)
    (suppression_peak,) = suppression_peaks
    assert suppression_peak <= 2.3 * record, suppression_peak / record


# run_closed_loop continued chunk by chunk, on its own: unequal delays (m1 =
# 2, m2 = 5) and every topology.  The far-end gain sits below its m2 = 5
# stability edge (250 Hz).  The actuator ranges are small enough that both
# "beyond range" warnings turn on partway through the record.
M1, M2 = 2, 5
LOOP_N = 2000
LOOP_FIELDS = ("round_trip", "one_way", "probe_rt", "c1_applied", "a2_applied")


def _loop_config(topology, near_unity_hz=100.0):
    def ctl(unity_gain_hz):
        return ControllerConfig(unity_gain_hz=unity_gain_hz, integrator_corner_hz=10.0)

    return LinkLoopConfig(
        dt=1e-4, m1=M1, m2=M2, controller1=ctl(near_unity_hz), controller2=ctl(100.0),
        rf_shifter=ActuatorState("rf_phase_shifter", 2e-13, 5e4),
        piezo=ActuatorState("piezo_stretcher", 1e-13, 5e3),
        thermal=ActuatorState("thermal_spool", 1e-13, 0.3),
        topology=topology)


def _loop_inputs():
    rng = np.random.default_rng(17)
    walks = [np.cumsum(rng.standard_normal(LOOP_N)) * 1e-14 for _ in range(2)]
    return walks + [rng.standard_normal(LOOP_N) * 1e-14 for _ in range(3)]


def _loop_chunked(cfg, records, chunk):
    """The outputs of consecutive ``chunk``-sample calls, joined, and the
    last call's warnings.  Each call's outputs are copied and then
    overwritten, as a caller may reuse them: the next call must not read
    them."""
    parts, state = [], None
    for start in range(0, LOOP_N, chunk):
        n1, n2, d1, d2, dp = (r[start:start + chunk] for r in records)
        res = run_closed_loop(cfg, n1, n2, d1, d2, probe_det=dp, state=state)
        state = res.state
        parts.append({f: getattr(res, f).copy() for f in LOOP_FIELDS})
        for f in LOOP_FIELDS:
            getattr(res, f)[:] = np.nan
    joined = {f: np.concatenate([p[f] for p in parts]) for f in LOOP_FIELDS}
    return joined, res.warnings


@pytest.mark.parametrize("topology", RUN_TOPOLOGIES)
@pytest.mark.parametrize("chunk", [1, 3, 2 * max(M1, M2) + 1, 777])
def test_loop_continued_equals_one_pass(topology, chunk):
    cfg = _loop_config(topology)
    records = _loop_inputs()
    kept = [r.copy() for r in records]
    whole, whole_warnings = _loop_chunked(cfg, records, LOOP_N)
    part, part_warnings = _loop_chunked(cfg, records, chunk)
    for f in LOOP_FIELDS:
        assert whole[f].tobytes() == part[f].tobytes(), f
    assert part_warnings == whole_warnings
    if topology != "off":
        assert len(whole_warnings) == 2
    assert all(np.array_equal(r, k) for r, k in zip(records, kept))


@pytest.mark.parametrize("topology", ["series", "independent"])
@pytest.mark.parametrize("chunk", [1, 3, 2 * max(M1, M2) + 1, 777])
def test_loop_continued_diverges_at_the_same_step(topology, chunk):
    # A near-end gain beyond its m1 = 2 stability edge (625 Hz): it diverges
    # at step 1205, inside the second 777-sample chunk.
    cfg = _loop_config(topology, near_unity_hz=750.0)
    records = _loop_inputs()
    errors = []
    for size in (LOOP_N, chunk):
        with pytest.raises(DivergenceError) as err:
            _loop_chunked(cfg, records, size)
        errors.append(err.value)
    whole, part = errors
    assert part.step == whole.step > 777
    assert str(part) == str(whole)
