"""Probe-detuning scans of the steady state and feature detection.

A sweep walks the probe detuning delta_c2 over a uniform grid.  Closure
completion runs once on the whole grid (so the scan is physically realized
through the frame of the field named by closure_target); each grid point
then gets its own validated Scenario and generator, and the steady states
are solved a block of points at a time.  The stored quantities per row are
the four populations and the six independent coherences, addressed with the
same column keys the CSV output uses (rho_aa, re_cd, im_cd, ...).

Feature detectors operate on the imaginary parts of the coherences, which
carry the absorption information: for the probe transition Im rho_cd > 0 is
absorption and Im rho_cd < 0 is gain.  Both detectors read intervals off
one boolean mask of the profile, as its maximal runs.  For windows it marks
the sub-threshold samples and each lone sample between two of them, so a
one-sample spike does not split a window; a run that holds no interior dip
(a sample no higher than either neighbour), such as a tail at a scan edge,
is not a window.  For gain it marks the samples below -1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atom import LEVELS, MAX_POINTS, ClosureError, Scenario, _check_count, _check_numbers, _closure
from .errors import InputError, SimulationError, echo
from .lindblad import SteadyStateError, build_liouvillian, steady_state

__all__ = [
    "CSV_COLUMNS",
    "EitWindow",
    "MAX_POINTS",
    "OBSERVABLE_KEYS",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "detect_gain",
    "detect_windows",
    "run_sweep",
]

#: Coherence keys, named upper-level-first for the transitions they probe.
_COHERENCE_KEYS = ("cd", "ca", "db", "cb", "ab", "ad", "bd")

#: Keys a config's observables may name: the populations, then the coherences.
OBSERVABLE_KEYS = ("pop_a", "pop_b", "pop_c", "pop_d") + _COHERENCE_KEYS

#: Column order of the CSV output and of SweepResult.column: the detuning,
#: the populations, then the real and imaginary part of each coherence.
CSV_COLUMNS = (
    ("delta",)
    + tuple(f"rho_{level}{level}" for level in LEVELS)
    + tuple(f"{part}_{key}" for key in _COHERENCE_KEYS for part in ("re", "im"))
)

# Grid points whose steady states are solved in one stacked elimination.
# Larger blocks save little more time and raise peak memory: a single
# 1001-point block took about 15 MB more.
_BLOCK = 64

_GAIN_THRESHOLD = -1e-9


class SweepError(SimulationError):
    """A sweep could not be completed."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a probe scan.

    The swept parameter is always the probe detuning delta_c2; base supplies
    every other parameter and the closure target.  Each edge must be real,
    finite and at most atom.MAX_RATE (1e76) in magnitude (errors.InputError
    naming it alone, as Scenario names a detuning), delta_min < delta_max
    (naming both), and points an integer in [2, MAX_POINTS = 10^6], atom's count rule.
    """

    base: Scenario
    delta_min: float = -25.0
    delta_max: float = 25.0
    points: int = 1001

    def __post_init__(self):
        _check_numbers(vars(self), (("delta_min", True), ("delta_max", True)))
        if not self.delta_min < self.delta_max:
            grid = f"[{echo(self.delta_min)}, {echo(self.delta_max)}]"
            rule = "delta_min must be below delta_max"
            raise InputError(f"sweep range {grid} is empty: {rule}", ("delta_min", "delta_max"))
        _check_count("points", self.points, 2)


def _entry(key: str) -> tuple[int, int]:
    """(row, column) of the density-matrix entry a column or observable key names.

    The levels after the key's last "_" name it: two an entry, as in im_cd,
    rho_aa or cd, and one a population, as in pop_a.
    """
    levels = key.rpartition("_")[2]
    return LEVELS.index(levels[0]), LEVELS.index(levels[-1])


@dataclass(frozen=True)
class SweepResult:
    """Steady states over a detuning grid.

    delta is strictly ascending; states[k] is the full steady density matrix
    at delta[k].  column gives read access by CSV column key.
    """

    delta: np.ndarray
    states: np.ndarray

    def column(self, key: str) -> np.ndarray:
        if key not in CSV_COLUMNS:
            valid = ", ".join(CSV_COLUMNS)
            raise ValueError(f"unknown column {echo(key)!r}; valid columns: {valid}")
        if key == "delta":
            return self.delta
        row, col = _entry(key)
        entries = self.states[:, row, col]
        return entries.imag if key.startswith("im_") else entries.real


@dataclass(frozen=True)
class EitWindow:
    """One transparency window of an absorption profile.

    center is the detuning of the deepest sample, half_width half the extent
    of the below-threshold interval (threshold crossings interpolated
    linearly), depth the minimum of the observable inside the window (below
    threshold by construction).
    """

    center: float
    half_width: float
    depth: float


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve the steady state across the probe-detuning grid.

    Closure completion runs once on the grid, with closure_complete's float
    operations; each point then gets one validated Scenario (a completed
    detuning past atom.MAX_RATE raises its errors.InputError) and one
    generator, and the steady states are solved a block of points at a time.
    Any other per-point failure aborts the sweep, and the error names the
    first detuning that fails on its own: each point is built once, and a
    failing block's lowest failure comes from steady_state's `index`.  Under
    closure_target "none" only the points before the first open loop are
    solved; that open loop names the error if they all succeed.  Note that
    closure_target "c2" pins the probe detuning right back, making the scan
    flat; targets naming an inactive field give the intended probe
    spectroscopy.  Output is deterministic: identical specs produce
    bit-identical results, equal to solving each point on its own.
    """

    def aborted(delta, exc: SimulationError) -> SweepError:
        return SweepError(f"sweep aborted at probe detuning {float(delta)!r}: {exc}")

    base = spec.base
    grid = np.linspace(spec.delta_min, spec.delta_max, spec.points)
    stop, open_loop = spec.points, None
    try:
        target, completed = _closure(base, grid)
    except ClosureError as exc:
        # Target "none" keeps the probe detuning; solve up to the first open loop.
        target, completed, stop, open_loop = "delta_c2", grid, exc.index, exc
    # Target "c2" completes to one value for the whole grid.
    completed = np.broadcast_to(completed, grid.shape)
    values = dict(vars(base))
    states = np.empty((spec.points, 4, 4), dtype=np.complex128)
    liouv = np.empty((min(_BLOCK, spec.points), 16, 16), dtype=np.complex128)
    for start in range(0, stop, _BLOCK):
        end = min(start + _BLOCK, stop)
        block = grid[start:end]
        # Python floats, a block at a time: a Scenario echoes them with repr.
        points = zip(block.tolist(), completed[start:end].tolist())
        for k, (delta, value) in enumerate(points):
            values["delta_c2"] = delta
            values[target] = value
            liouv[k] = build_liouvillian(Scenario(**values))
        try:
            states[start:end] = steady_state(liouv[: end - start])
        except SteadyStateError as exc:
            if exc.index is None:
                raise
            raise aborted(block[exc.index], exc) from exc
    if open_loop is not None:
        raise aborted(grid[stop], open_loop) from open_loop
    return SweepResult(delta=grid, states=states)


def _profile(result: SweepResult, observable: str) -> np.ndarray:
    if not observable.startswith("im_"):
        raise ValueError(f"windows and gain are defined on im_* columns, got {echo(observable)!r}")
    y = result.column(observable)
    if not np.isfinite(y).all():
        raise ValueError(f"{observable} has a non-finite sample")
    return y


def _runs(mask: np.ndarray) -> list[list[int]]:
    # [first, last] index pairs of mask's maximal True runs, in order.
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return (edges.reshape(-1, 2) - (0, 1)).tolist()


def _crossing(x: np.ndarray, y: np.ndarray, inside: int, outside: int, threshold: float) -> float:
    # Linear interpolation of the threshold crossing between an outside
    # sample (>= threshold) and the adjacent inside sample (< threshold).
    # inside < threshold <= outside, so the two samples differ and so does
    # their difference from zero.
    frac = (threshold - y[outside]) / (y[inside] - y[outside])
    return float(x[outside] + frac * (x[inside] - x[outside]))


def detect_windows(
    result: SweepResult, observable: str, threshold_fraction: float = 0.1
) -> list[EitWindow]:
    """Find transparency windows of an absorption column.

    The threshold is threshold_fraction times the maximum of the observable
    over the sweep.  The mask marks the samples below it and each single
    sample between two of them; each maximal run of it that holds an
    interior dip, a sample k with y[k] <= min(y[k-1], y[k+1]), is a window.
    That drops monotone tails at the scan edges.  Windows come back ordered
    by center.  A column that never absorbs (maximum <= 0) has no windows:
    its threshold would lie above every sample.  Each a ValueError, in this
    order: a threshold_fraction outside the open interval (0, 1), NaN
    included, naming it; an observable that is not an im_* column, then a
    NaN or inf sample, naming the observable; fewer than 3 grid points.
    """
    if not 0.0 < threshold_fraction < 1.0:
        shown = (str if isinstance(threshold_fraction, int) else repr)(echo(threshold_fraction))
        raise ValueError(f"threshold_fraction must lie in (0, 1), got {shown}")
    y = _profile(result, observable)
    x = result.delta
    if len(y) < 3:
        raise ValueError("window detection needs at least 3 grid points")
    peak = float(np.max(y))
    if peak <= 0.0:
        return []
    threshold = threshold_fraction * peak
    below = y < threshold
    below[1:-1] |= below[:-2] & below[2:]
    dip = np.zeros(len(y), dtype=bool)
    dip[1:-1] = (y[1:-1] <= y[:-2]) & (y[1:-1] <= y[2:])
    windows = []
    for start, end in _runs(below):
        if not dip[start : end + 1].any():
            continue
        segment = y[start : end + 1]
        deepest = start + int(np.argmin(segment))
        left = _crossing(x, y, start, start - 1, threshold) if start > 0 else float(x[0])
        right = (
            _crossing(x, y, end, end + 1, threshold) if end < len(y) - 1 else float(x[-1])
        )
        windows.append(
            EitWindow(
                center=float(x[deepest]),
                half_width=0.5 * (right - left),
                depth=float(y[deepest]),
            )
        )
    return windows


def detect_gain(result: SweepResult, observable: str) -> list[tuple[float, float]]:
    """Detuning intervals where the observable drops below -1e-9.

    observable must be an im_* column, where a strictly negative value
    means the medium amplifies the field instead of absorbing it.  Another
    column, or a NaN or inf sample, is the ValueError detect_windows raises.
    """
    y = _profile(result, observable)
    return [
        (float(result.delta[start]), float(result.delta[end]))
        for start, end in _runs(y < _GAIN_THRESHOLD)
    ]
