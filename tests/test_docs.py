"""README's library example runs against the package as it is, so a
deleted or renamed public name cannot linger in it, and the numbers README
quotes that the code determines are computed here."""

import importlib.util
import pathlib
import re

import numpy as np
import pytest

import fiberlink as fl
from fiberlink.noise import _fast_len

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
    assert namespace["onset"] == pytest.approx(632.89, abs=0.005)
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
