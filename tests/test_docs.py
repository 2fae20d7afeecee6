"""README's library example runs against the package as it is, so a
deleted or renamed public name cannot linger in it."""

import pathlib
import re

import numpy as np
import pytest

import fiberlink as fl

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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

