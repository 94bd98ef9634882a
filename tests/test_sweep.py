"""Tests for the detuning scan, window detection, and gain detection."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diamondsim import lindblad, sweep
from diamondsim.atom import Scenario, closure_complete
from diamondsim.cli import preset
from diamondsim.errors import InputError
from diamondsim.sweep import (
    CSV_COLUMNS,
    MAX_POINTS,
    SweepError,
    SweepResult,
    SweepSpec,
    detect_gain,
    detect_windows,
    run_sweep,
)


def synthetic_result(delta, im_cd):
    """SweepResult whose probe absorption column is the given array."""
    delta = np.asarray(delta, dtype=float)
    states = np.zeros((len(delta), 4, 4), dtype=complex)
    states[:, 2, 3] = 1j * np.asarray(im_cd, dtype=float)
    return SweepResult(delta=delta, states=states)


def test_spec_validation():
    base = Scenario()
    with pytest.raises(ValueError):
        SweepSpec(base=base, delta_min=1.0, delta_max=1.0)
    with pytest.raises(ValueError):
        SweepSpec(base=base, delta_min=2.0, delta_max=-2.0)
    with pytest.raises(ValueError):
        SweepSpec(base=base, points=1)
    assert SweepSpec(base=base, points=MAX_POINTS).points == MAX_POINTS
    for points in (MAX_POINTS + 1, 10**12):
        with pytest.raises(ValueError, match=f"points must be at most {MAX_POINTS}"):
            SweepSpec(base=base, points=points)
    for low, high, message in (
        (-math.inf, 0.0, "delta_min must be finite, got -inf"),
        (0.0, math.inf, "delta_max must be finite, got inf"),
        (math.nan, 1.0, "delta_min must be finite, got nan"),
        (-1e308, 1e308, "delta_min must be at most 1e+76 in magnitude, got -1e+308"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(base=base, delta_min=low, delta_max=high)


def test_run_sweep_grid_and_shapes():
    s, _ = preset("fig5")
    spec = SweepSpec(base=s, delta_min=-5.0, delta_max=5.0, points=11)
    result = run_sweep(spec)
    assert np.array_equal(result.delta, np.linspace(-5.0, 5.0, 11))
    assert result.states.shape == (11, 4, 4)
    sums = result.states.trace(axis1=1, axis2=2).real
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_run_sweep_deterministic():
    s, _ = preset("fig6b")
    spec = SweepSpec(base=s, delta_min=-2.0, delta_max=2.0, points=7)
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert np.array_equal(first.delta, second.delta)
    assert np.array_equal(first.states, second.states)


def test_run_sweep_reports_failing_detuning():
    dead = Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    spec = SweepSpec(base=dead, delta_min=-1.0, delta_max=1.0, points=3)
    with pytest.raises(SweepError, match="probe detuning"):
        run_sweep(spec)


# All four fields driven with closure_target "none": delta_a1 + delta_c1 -
# delta_a2 = -25, so the loop closes at the first grid point only.
_OPEN_LOOP = Scenario(
    omega_a1=2.0, omega_a2=3.0, omega_c1=4.0, omega_c2=1.5,
    delta_a1=-20.0, delta_a2=3.0, delta_c1=-2.0, closure_target="none",
)


# The messages a point-by-point sweep gives for these bases.
@pytest.mark.parametrize(
    "base,message",
    [
        (
            _OPEN_LOOP,
            "sweep aborted at probe detuning -24.95: time-dependent Hamiltonian unsupported: "
            "all four fields are active and delta_a1 + delta_c1 - delta_a2 - delta_c2 = -5.000e-02",
        ),
        (
            replace(_OPEN_LOOP, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0),
            "sweep aborted at probe detuning -25.0: non-unique or absent steady state: matrix is "
            "numerically singular at pivot 13 (|pivot| = 3.656e-16, threshold = 3.500e-13)",
        ),
        (
            replace(_OPEN_LOOP, delta_a1=-19.0),
            "sweep aborted at probe detuning -25.0: time-dependent Hamiltonian unsupported: "
            "all four fields are active and delta_a1 + delta_c1 - delta_a2 - delta_c2 = 1.000e+00",
        ),
    ],
    ids=["closure", "steady-before-closure", "closure-first"],
)
def test_open_loop_sweep_names_the_first_failing_detuning(base, message):
    with pytest.raises(SweepError) as info:
        run_sweep(SweepSpec(base=base, points=1001))
    assert str(info.value) == message


def test_sweep_names_the_lowest_failing_point_past_the_first_block(monkeypatch):
    s, _ = preset("fig5")
    grid = np.linspace(-25.0, 25.0, 201).tolist()
    leaky = lindblad.build_liouvillian(closure_complete(replace(s, delta_c2=grid[130])))
    leaky[0, 0] -= 1e-3
    dead = lindblad.build_liouvillian(
        Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    )
    broken = {grid[130]: leaky, grid[140]: dead}

    def build(scenario):
        return broken.get(scenario.delta_c2, lindblad.build_liouvillian(scenario))

    monkeypatch.setattr(sweep, "build_liouvillian", build)
    with pytest.raises(SweepError) as info:
        run_sweep(SweepSpec(base=s, points=201))
    assert str(info.value).startswith(
        f"sweep aborted at probe detuning {grid[130]!r}: non-unique or absent steady state: residual"
    )
    del broken[grid[130]]
    with pytest.raises(SweepError) as info:
        run_sweep(SweepSpec(base=s, points=201))
    assert str(info.value).startswith(
        f"sweep aborted at probe detuning {grid[140]!r}: non-unique or absent steady state: "
        "matrix is numerically singular"
    )


def test_failing_block_builds_each_point_once(monkeypatch):
    # One 64-point block whose last point leaks: the failure path reuses
    # steady_state's index instead of building the block again.
    s, _ = preset("fig5")
    spec = SweepSpec(base=s, points=64)
    grid = np.linspace(spec.delta_min, spec.delta_max, spec.points).tolist()
    built = []

    def build(scenario):
        built.append(scenario.delta_c2)
        liouv = lindblad.build_liouvillian(scenario)
        if scenario.delta_c2 == grid[-1]:
            liouv[0, 0] -= 1e-3
        return liouv

    monkeypatch.setattr(sweep, "build_liouvillian", build)
    with pytest.raises(SweepError) as info:
        run_sweep(spec)
    assert str(info.value).startswith(
        f"sweep aborted at probe detuning {grid[-1]!r}: non-unique or absent steady state: residual"
    )
    assert built == grid


@pytest.mark.parametrize(
    "target,offset",
    [("a1", {"delta_a2": 5e75}), ("a2", {"delta_a1": -5e75}), ("c1", {"delta_a2": 5e75})],
)
def test_sweep_past_the_cap_raises_the_point_by_point_input_error(monkeypatch, target, offset):
    # The completed detuning runs 5e75 ahead of the probe (behind it, for
    # a2), so it passes atom.MAX_RATE partway along, in the third block.
    # Every point solves fig5's generator, so the blocks before it succeed.
    base = replace(Scenario(closure_target=target), **offset)
    spec = SweepSpec(base=base, delta_min=-1e76, delta_max=1e76, points=231)
    grid = np.linspace(spec.delta_min, spec.delta_max, spec.points).tolist()
    with pytest.raises(InputError) as expected:
        for crossing, delta in enumerate(grid):
            closure_complete(replace(base, delta_c2=delta))
    assert 2 * 64 <= crossing < 3 * 64
    fig5 = lindblad.build_liouvillian(closure_complete(preset("fig5")[0]))
    built = []

    def build(scenario):
        built.append(scenario.delta_c2)
        return fig5

    monkeypatch.setattr(sweep, "build_liouvillian", build)
    with pytest.raises(InputError) as info:
        run_sweep(spec)
    assert str(info.value) == str(expected.value)
    assert info.value.fields == expected.value.fields == (f"delta_{target}",)
    assert "np.float64" not in str(info.value)
    assert built == grid[:crossing]


def test_probe_target_pins_the_scan_flat():
    # completing the probe detuning itself overwrites the swept value
    s, _ = preset("fig5")
    spec = SweepSpec(base=replace(s, closure_target="c2"), delta_min=-3.0, delta_max=3.0, points=5)
    result = run_sweep(spec)
    for k in range(1, 5):
        assert np.array_equal(result.states[k], result.states[0])


@pytest.mark.parametrize(
    "kwargs,fields,fragment",
    [
        (
            dict(delta_min=-1e308, delta_max=1e308),
            ("delta_min",),
            "delta_min must be at most 1e+76 in magnitude, got -1e+308",
        ),
        (dict(delta_max=math.inf), ("delta_max",), "delta_max must be finite, got inf"),
        (
            dict(delta_min=5.0, delta_max=-5.0),
            ("delta_min", "delta_max"),
            "sweep range [5.0, -5.0] is empty: delta_min must be below delta_max",
        ),
        (dict(points=1), ("points",), "points must be at least 2, got 1"),
        (dict(points=MAX_POINTS + 1), ("points",), f"points must be at most {MAX_POINTS}"),
        (dict(points=10.0), ("points",), "points must be an integer, got 10.0"),
        (dict(points="5"), ("points",), "points must be an integer, got '5'"),
        # A broken edge names itself alone; a long int edge is cut in its echo.
        (dict(delta_min=-1 + 2j), ("delta_min",), "delta_min must be a real number, got (-1+2j)"),
        (
            dict(delta_max=np.complex128(3j)),
            ("delta_max",),
            "delta_max must be a real number, got np.complex128(3j)",
        ),
        (dict(delta_max="25"), ("delta_max",), "delta_max must be a real number, got '25'"),
        (
            dict(delta_min=-(10**400)),
            ("delta_min",),
            "delta_min must be at most 1e+76 in magnitude, got -1" + "0" * 31 + "... (401 digits)",
        ),
        (
            dict(delta_max=10**77),
            ("delta_max",),
            "delta_max must be at most 1e+76 in magnitude, got 1" + "0" * 31 + "... (78 digits)",
        ),
    ],
)
def test_spec_rejections_name_their_fields(kwargs, fields, fragment):
    with pytest.raises(InputError) as info:
        SweepSpec(base=Scenario(), **kwargs)
    assert info.value.fields == fields
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "points,message",
    [
        (10**40, "points must be at most 1000000, got 1" + "0" * 31 + "... (41 digits)"),
        (10**5000, "points must be at most 1000000, got 1" + "0" * 31 + "... (5001 digits)"),
        (-(10**4500) + 1, "points must be at least 2, got -" + "9" * 32 + "... (4500 digits)"),
    ],
    ids=["41-digits", "5001-digits", "minus-4500-digits"],
)
def test_spec_cuts_the_echo_of_a_long_integer(points, message):
    # Ints past 4300 digits cannot go through str(); the echo must not try.
    with pytest.raises(InputError) as info:
        SweepSpec(base=Scenario(), points=points)
    assert str(info.value) == message


def test_spec_points_accept_numpy_integers():
    spec = SweepSpec(base=preset("fig5")[0], delta_min=-1.0, delta_max=1.0, points=np.int64(3))
    assert run_sweep(spec).states.shape == (3, 4, 4)


def test_csv_columns_match_the_documented_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = readme.split("### CSV format", 1)[1].split("```", 2)[1].strip()
    assert ",".join(CSV_COLUMNS) == header
    assert header == (
        "delta,rho_aa,rho_bb,rho_cc,rho_dd,re_cd,im_cd,re_ca,im_ca,re_db,im_db,"
        "re_cb,im_cb,re_ab,im_ab,re_ad,im_ad,re_bd,im_bd"
    )


def test_column_access():
    rng = np.random.default_rng(8)
    states = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    result = SweepResult(delta=np.arange(5.0), states=states)
    assert np.array_equal(result.column("delta"), result.delta)
    assert np.array_equal(result.column("rho_bb"), states[:, 1, 1].real)
    assert np.array_equal(result.column("im_cd"), states[:, 2, 3].imag)
    assert np.array_equal(result.column("re_db"), states[:, 3, 1].real)
    with pytest.raises(ValueError, match="unknown column"):
        result.column("im_xy")


def test_csv_columns_cover_all_entries():
    assert CSV_COLUMNS[0] == "delta"
    assert len(CSV_COLUMNS) == 19  # grid + 4 populations + 7 complex coherences


def test_window_on_a_linear_dip():
    delta = np.linspace(-5.0, 5.0, 101)
    y = np.minimum(1.0, 0.02 + 0.7 * np.abs(delta))
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert len(windows) == 1
    w = windows[0]
    assert w.center == 0.0
    assert w.depth == 0.02
    # crossings of threshold 0.1 sit at |delta| = 0.08 / 0.7, interpolation exact on a line
    assert w.half_width == pytest.approx(0.08 / 0.7, rel=1e-9)


def test_window_threshold_fraction_parameter():
    delta = np.linspace(-5.0, 5.0, 101)
    y = np.minimum(1.0, 0.02 + 0.7 * np.abs(delta))
    narrow = detect_windows(synthetic_result(delta, y), "im_cd", threshold_fraction=0.1)
    wide = detect_windows(synthetic_result(delta, y), "im_cd", threshold_fraction=0.5)
    assert len(wide) == 1
    assert wide[0].half_width > narrow[0].half_width
    # Outside (0, 1) the threshold lies at or below zero or at or above the
    # peak, so the mask would mark no sample or the whole scan.
    for outside in (math.nan, -0.5, 0.0, 1.0, 2.0, math.inf):
        with pytest.raises(ValueError, match="threshold_fraction must lie in"):
            detect_windows(synthetic_result(delta, y), "im_cd", threshold_fraction=outside)
    # An integer past str()'s 4300 digits is repeated cut, as errors.echo cuts it.
    with pytest.raises(ValueError, match=r"\(0, 1\), got 10{31}\.\.\. \(5001 digits\)$"):
        detect_windows(synthetic_result(delta, y), "im_cd", threshold_fraction=10**5000)


def test_edge_tail_is_not_a_window():
    delta = np.linspace(-5.0, 5.0, 101)
    y = np.minimum(1.0, 0.02 + 0.7 * (delta + 5.0))
    assert detect_windows(synthetic_result(delta, y), "im_cd") == []


def test_non_absorbing_column_has_no_window():
    # Pure gain with a centre dip: 0.1 * max lies above every sample, which
    # once made the whole scan one window.
    delta = np.linspace(-5.0, 5.0, 101)
    gain = -np.exp(-(delta**2)) * (1.0 - 0.5 * np.exp(-4.0 * delta**2))
    assert detect_windows(synthetic_result(delta, gain), "im_cd") == []
    touching_zero = gain.copy()
    touching_zero[-1] = 0.0
    assert detect_windows(synthetic_result(delta, touching_zero), "im_cd") == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_is_rejected(bad):
    # A NaN maximum would make the threshold NaN and erase every window.
    delta = np.linspace(-5.0, 5.0, 101)
    result = synthetic_result(delta, np.minimum(1.0, 0.02 + 0.7 * np.abs(delta)))
    result.states[80, 2, 3] = complex(0.0, bad)
    with pytest.raises(ValueError, match="^im_cd has a non-finite sample$"):
        detect_windows(result, "im_cd")


def test_single_sample_gap_merges():
    delta = np.arange(31.0)
    y = np.ones(31)
    y[10:13] = (0.05, 0.02, 0.05)
    y[13] = 0.5
    y[14:17] = (0.05, 0.02, 0.05)
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert len(windows) == 1
    assert windows[0].center == 11.0
    # A third run behind a second one-sample gap joins too.
    y[17] = 0.5
    y[18:21] = (0.05, 0.01, 0.05)
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert [(w.center, w.depth) for w in windows] == [(19.0, 0.01)]
    assert windows[0].half_width == pytest.approx(0.5 * (12.0 - 2 * 0.9 / 0.95))


@pytest.mark.parametrize("start, center", [(0, 1.0), (28, 29.0)], ids=["left-edge", "right-edge"])
def test_window_touching_a_scan_edge_ends_there(start, center):
    delta = np.arange(31.0)
    y = np.ones(31)
    y[start : start + 3] = (0.05, 0.02, 0.05)
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert [(w.center, w.depth) for w in windows] == [(center, 0.02)]
    # One end at x[0] or x[-1], the other 0.9 / 0.95 short of the first
    # sample at 1.0 (threshold 0.1).
    assert windows[0].half_width == pytest.approx(0.5 * (3.0 - 0.9 / 0.95))


def test_flat_bottomed_window_is_centred_on_its_first_lowest_sample():
    delta = np.arange(31.0)
    y = np.ones(31)
    y[10:15] = (0.05, 0.02, 0.02, 0.02, 0.05)
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert [(w.center, w.depth) for w in windows] == [(11.0, 0.02)]


def test_two_sample_gap_stays_split():
    delta = np.arange(31.0)
    y = np.ones(31)
    y[10:13] = (0.05, 0.02, 0.05)
    y[13:15] = 0.5
    y[15:18] = (0.05, 0.02, 0.05)
    windows = detect_windows(synthetic_result(delta, y), "im_cd")
    assert [w.center for w in windows] == [11.0, 16.0]


def test_window_validation():
    delta = np.linspace(-1.0, 1.0, 11)
    result = synthetic_result(delta, np.ones(11))
    with pytest.raises(ValueError, match="im_"):
        detect_windows(result, "re_cd")
    short = synthetic_result([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="grid points"):
        detect_windows(short, "im_cd")
    # A long key is repeated cut to its head and its length, as errors.echo cuts it.
    with pytest.raises(ValueError, match=r"^unknown column 'q{32}\.\.\. \(5000 characters\)'; "):
        result.column("q" * 5000)


def test_gain_intervals():
    delta = np.arange(5.0)
    result = synthetic_result(delta, [0.1, -0.2, -0.3, 0.0, 0.5])
    assert detect_gain(result, "im_cd") == [(1.0, 2.0)]
    result = synthetic_result(delta, [-0.1, -0.2, -0.3, -1e-8, -0.5])
    assert detect_gain(result, "im_cd") == [(0.0, 4.0)]
    # A NaN sample is rejected, as in detect_windows.
    result = synthetic_result(delta, [-0.1, np.nan, -0.3, -0.2, 0.0])
    with pytest.raises(ValueError, match="^im_cd has a non-finite sample$"):
        detect_gain(result, "im_cd")
    # Gain is read off an im_* column only, as windows are; the column
    # check comes before the sample check.
    for observable in ("re_cd", "rho_cc", "delta"):
        with pytest.raises(ValueError, match=f"im_\\* columns, got '{observable}'$"):
            detect_gain(result, observable)
    with pytest.raises(ValueError, match=r"im_\* columns, got 'q{32}\.\.\. \(5000 characters\)'$"):
        detect_gain(result, "q" * 5000)


def test_gain_ignores_rounding_noise():
    delta = np.arange(3.0)
    result = synthetic_result(delta, [0.1, -1e-10, 0.1])
    assert detect_gain(result, "im_cd") == []
