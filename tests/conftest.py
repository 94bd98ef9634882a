"""Fixtures shared by the test modules."""

import functools

import pytest

from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.sweep import run_sweep


@pytest.fixture(scope="session")
def sweeps():
    """Every preset's own 1001-point sweep; presets with one grid share one run."""
    sweep_once = functools.cache(run_sweep)
    return {name: sweep_once(preset(name)[1]) for name in PRESET_NAMES}
