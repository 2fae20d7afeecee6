"""README's library example runs against the package as it is, so a
deleted or renamed public name cannot linger in it, and the numbers README
quotes that the code determines are computed here."""

import importlib.util
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import fiberlink as fl
from fiberlink import io, scenario
from fiberlink.control import loop_sensitivity
from fiberlink.noise import _fast_len
from fiberlink.stability import WelchAccumulator, log_band_average

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    namespace = {}
    exec(compile(library_use_block(), "README.md (Library use)", "exec"), namespace)
    # The values its comments quote.
    assert namespace["f_crit"] == pytest.approx(625.0)
    curve = namespace["curve"]
    assert np.array_equal(namespace["one_way"].sigmas, curve.sigmas / 2)


def test_every_package_name_in_readme_exists():
    names = set(re.findall(r"\bfl\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert names and not sorted(n for n in names if not hasattr(fl, n))


def test_padded_suppression_lengths():
    # The decimated records of fig1 and perfbench's longterm_10d, each with
    # the fence-post sample, and the 5-smooth lengths README says they take.
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    computed = {}
    for name in ("fig1", "longterm_10d"):
        run = fl.load_scenario(workloads.scenario_for(name, 1)).data["run"]
        n = round(run["decimated_duration_s"] / run["decimated_step_s"]) + 1
        computed[f"{n:,}"] = f"{_fast_len(n):,}"
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert dict(re.findall(r"has n = ([\d,]+)(?: = [\d·]+)? and is padded to ([\d,]+)",
                           text)) == computed


def test_quoted_block_and_chunk_sizes():
    # Every "`module._NAME` = 2^k" README quotes, the burst pulse's block
    # and the CSV writers' chunk, against the code's values.
    text = " ".join(README.read_text(encoding="utf-8").split())

    def code(module, name):
        return getattr(importlib.import_module(f"fiberlink.{module}"), name)

    quoted = re.findall(r"`(\w+)\.(_[A-Z_]+)` = 2\^(\d+)", text)
    assert len(quoted) >= 4, quoted
    for module, name, power in quoted:
        assert code(module, name) == 2 ** int(power), name
    (pulse,) = re.findall(r"a burst pulse is evaluated ([\d,]+) samples at a time", text)
    assert int(pulse.replace(",", "")) == code("noise", "_PULSE_BLOCK")
    (rows,) = re.findall(r"to the file in chunks of ([\d,]+) rows", text)
    assert int(rows.replace(",", "")) == code("io", "_CHUNK_ROWS")


def test_quoted_floor_caps_and_psd_rows():
    text = " ".join(README.read_text(encoding="utf-8").split())
    fig1 = fl.load_scenario({"seed": 1, "preset": "fig1"}).data
    # The closed floor's default and its one-day point on the walk-FM law,
    # sigma_y(tau) = sqrt(2 pi^2 / 3 * h * tau).
    ((h, day),) = re.findall(r"`controllers\.closed_floor_walk_fm_h` \(([\d.e-]+), "
                             r"([\d.e-]+) at one day", text)
    assert float(h) == scenario._DEFAULTS["controllers"]["closed_floor_walk_fm_h"]
    assert f"{math.sqrt(2 * math.pi ** 2 / 3 * float(h) * 86_400):.0e}" == day
    # The full-rate and decimated sample caps, as durations at fig1's steps.
    ((full, hours, step_ms, dec, days, dec_step),) = re.findall(
        r"2\^(\d+) full-rate samples \(`run\.fullrate_duration_s / link\.step_s`, "
        r"([\d.]+) h at ([\d.]+) ms\), 2\^(\d+) decimated samples \(([\d.]+) days at "
        r"([\d.]+) s\)", text)
    assert 2 ** int(full) == scenario._MAX_FULLRATE_SAMPLES
    assert 2 ** int(dec) == scenario._MAX_DECIMATED_SAMPLES
    assert float(step_ms) * 1e-3 == fig1["link"]["step_s"]
    assert float(dec_step) == fig1["run"]["decimated_step_s"]
    assert f"{2 ** int(full) * fig1['link']['step_s'] / 3600:.1f}" == hours
    assert f"{2 ** int(dec) * fig1['run']['decimated_step_s'] / 86_400:.0f}" == days
    # fig1's PSD rows: the log-band means of one Welch segment's grid.
    ((rows, bins),) = re.findall(r"`fig1` writes (\d+) rows \([\d.]+ KB\) in place of "
                                 r"([\d,]+) bins", text)
    step = fig1["link"]["step_s"]
    segment = round(fig1["outputs"]["psd_segment_s"] / step)
    welch = WelchAccumulator(segment, step, segment)
    welch.add(np.zeros(segment))
    psd = welch.result()
    assert int(bins.replace(",", "")) == psd.freqs.size
    assert int(rows) == log_band_average(psd, io._BANDS_PER_DECADE)[0].size


def test_quoted_welch_memory():
    # The bytes fig1's accumulator holds for its 600,000-sample segments,
    # as tracemalloc counts them when it is made.
    text = " ".join(README.read_text(encoding="utf-8").split())
    ((segment, quoted),) = re.findall(r"For `fig1`'s ([\d,]+)-sample segments the "
                                      r"accumulator holds ([\d.]+) MB", text)
    fig1 = fl.load_scenario({"seed": 1, "preset": "fig1"}).data
    step = fig1["link"]["step_s"]
    samples = round(fig1["outputs"]["psd_segment_s"] / step)
    assert f"{samples:,}" == segment
    tracemalloc.start()
    try:
        acc = WelchAccumulator(samples, step, samples)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert acc._buffer.size == samples
    assert f"{held / 1e6:.1f}" == quoted


def test_quoted_stability_numbers(stability_edge, loop_margins):
    # fig1's servo: 0.1 ms step, m = 2, the 50 kHz RF shifter (near end) and
    # the 5 kHz piezo (far end).  Its margins from S, the continuous loop's
    # L(s) = (kp/s + ki/s^2) exp(-s tau) at tau = 0.4 ms, and each loop's
    # edge, bisected on the count of its unstable poles.
    text = " ".join(README.read_text(encoding="utf-8").split())
    ((*quoted, edge_pct, far),) = re.findall(
        r"S puts the unity-gain crossing at ([\d.]+) Hz, the phase margin at ([\d.]+)° "
        r"and the gain margin at ([\d.]+) dB; the continuous .*? reads ([\d.]+) Hz, "
        r"([\d.]+)° and ([\d.]+) dB\. Raising `unity_gain_hz` by the gain margin, to "
        r"([\d.]+) Hz, .*?, ([\d.]+)% above 625 Hz, .*? turns unstable at ([\d.]+) Hz",
        text)
    cfg = fl.ControllerConfig()
    kp, ki = cfg.gains()

    def discrete(f):
        return 1.0 / loop_sensitivity([f], cfg, 5e4, 1e-4, 2)[0] - 1.0

    def continuous(f):
        s = 2j * np.pi * f
        return (kp / s + ki / s ** 2) * np.exp(-s * 4e-4)

    near = stability_edge(5e4)
    computed = (*loop_margins(discrete), *loop_margins(continuous), near)
    assert [f"{x:.2f}" for x in computed] == quoted
    assert f"{100 * (near / fl.critical_frequency(4e-4) - 1):.1f}" == edge_pct
    assert f"{stability_edge(5e3):.2f}" == far
    # The lagless pure-integrator servo's closed-form crossing, which the
    # count reproduces.
    ((crossing, m),) = re.findall(r"sin\(π/\(2\(4m-1\)\)\)/\(π dt\): ([\d.]+) Hz at "
                                  r"m = (\d+) and 10 µs", text)
    m = int(m)
    assert f"{math.sin(math.pi / (2 * (4 * m - 1))) / (math.pi * 1e-5):.2f}" == crossing
    assert f"{stability_edge(1e8, 1e-5, m, corner_hz=0.0):.2f}" == crossing
