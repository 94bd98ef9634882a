"""Probe-detuning scans of the steady state and feature detection.

A sweep walks the probe detuning delta_c2 over a uniform grid.  At each grid
point the Scenario is closure-completed (so the scan is physically realized
through the frame of the field named by closure_target) and the generator
rebuilt; the steady states are solved a block of points at a time.  The
stored quantities per row are the four populations and the six independent
coherences, addressed with the same column keys the CSV output uses (rho_aa,
re_cd, im_cd, ...).

Feature detectors operate on the imaginary parts of the coherences, which
carry the absorption information: for the probe transition Im rho_cd > 0 is
absorption and Im rho_cd < 0 is gain.  A transparency window is a maximal
sub-threshold stretch of an absorption profile that actually dips (contains
an interior local minimum); isolated single-sample spikes do not split a
window, and structureless below-threshold tails at the scan edges do not
count as windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atom import Scenario, closure_complete
from .errors import SimulationError
from .lindblad import build_liouvillian, steady_state

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
    "extract_observable",
    "run_sweep",
]

_LEVEL_INDEX = {"a": 0, "b": 1, "c": 2, "d": 3}

#: Coherence keys, named upper-level-first for the transitions they probe.
_COHERENCE_KEYS = ("cd", "ca", "db", "cb", "ab", "ad", "bd")

#: Keys accepted by extract_observable.
OBSERVABLE_KEYS = ("pop_a", "pop_b", "pop_c", "pop_d") + _COHERENCE_KEYS

#: Column order of the CSV output and of SweepResult.column.
CSV_COLUMNS = (
    "delta",
    "rho_aa",
    "rho_bb",
    "rho_cc",
    "rho_dd",
    "re_cd",
    "im_cd",
    "re_ca",
    "im_ca",
    "re_db",
    "im_db",
    "re_cb",
    "im_cb",
    "re_ab",
    "im_ab",
    "re_ad",
    "im_ad",
    "re_bd",
    "im_bd",
)

#: Largest grid SweepSpec accepts.  At the cap, run_sweep's states take 256 MB.
MAX_POINTS = 10**6

# Grid points whose steady states are solved in one stacked elimination.
# Larger blocks save little more time and raise peak memory: a single
# 1001-point block took about 15 MB more.
_BLOCK = 64

_GAIN_THRESHOLD = -1e-9
# Below-threshold runs separated by fewer than this many above-threshold
# samples merge into one window.
_MERGE_GAP = 2


class SweepError(SimulationError):
    """A sweep could not be completed."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a probe scan.

    The swept parameter is always the probe detuning delta_c2; base supplies
    every other parameter and the closure target.  The edges and the span
    between them must be finite, delta_min < delta_max, and
    2 <= points <= MAX_POINTS (10^6); otherwise ValueError.
    """

    base: Scenario
    delta_min: float = -25.0
    delta_max: float = 25.0
    points: int = 1001

    SWEPT_PARAMETER = "delta_c2"

    def __post_init__(self):
        # The span is finite only when both edges are too.
        if not math.isfinite(self.delta_max - self.delta_min):
            raise ValueError(
                "delta_min, delta_max and delta_max - delta_min must be finite, "
                f"got [{self.delta_min}, {self.delta_max}]"
            )
        if not self.delta_min < self.delta_max:
            raise ValueError(
                f"delta_min must be below delta_max, got [{self.delta_min}, {self.delta_max}]"
            )
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points}")
        if self.points > MAX_POINTS:
            raise ValueError(f"points must be at most {MAX_POINTS}, got {self.points}")


@dataclass(frozen=True)
class SweepResult:
    """Steady states over a detuning grid.

    delta is strictly ascending; states[k] is the full steady density matrix
    at delta[k].  column gives read access by CSV column key.
    """

    delta: np.ndarray
    states: np.ndarray

    def column(self, key: str) -> np.ndarray:
        if key == "delta":
            return self.delta
        if key.startswith("rho_") and len(key) == 6 and key[4] == key[5]:
            level = key[4]
            if level in _LEVEL_INDEX:
                k = _LEVEL_INDEX[level]
                return self.states[:, k, k].real
        if (key.startswith("re_") or key.startswith("im_")) and key[3:] in _COHERENCE_KEYS:
            i = _LEVEL_INDEX[key[3]]
            j = _LEVEL_INDEX[key[4]]
            entries = self.states[:, i, j]
            return entries.real if key.startswith("re_") else entries.imag
        raise ValueError(f"unknown column {key!r}; valid columns: {', '.join(CSV_COLUMNS)}")


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


def extract_observable(rho: np.ndarray, key: str):
    """Read one observable from a density matrix.

    pop_a..pop_d return real populations; the two-letter coherence keys
    return the complex entry rho[upper, lower] for the named transition.
    """
    rho = np.asarray(rho)
    if key.startswith("pop_") and key[4:] in _LEVEL_INDEX:
        k = _LEVEL_INDEX[key[4:]]
        return float(rho[k, k].real)
    if key in _COHERENCE_KEYS:
        return complex(rho[_LEVEL_INDEX[key[0]], _LEVEL_INDEX[key[1]]])
    raise ValueError(f"unknown observable {key!r}; valid keys: {', '.join(OBSERVABLE_KEYS)}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Solve the steady state across the probe-detuning grid.

    Each grid point sets delta_c2, closure-completes with the configured
    target, and builds its generator; the steady states are then solved a
    block of points at a time.  Any per-point failure aborts the sweep: the
    failing block is run again point by point, and the error names the
    first detuning that fails on its own.  Note that closure_target "c2"
    pins the probe detuning right back, making the scan flat; targets
    naming an inactive field give the intended probe spectroscopy.  Output
    is deterministic: identical specs produce bit-identical results, equal
    to solving each point on its own.
    """

    def generator(delta) -> np.ndarray:
        return build_liouvillian(closure_complete(replace(spec.base, delta_c2=float(delta))))

    grid = np.linspace(spec.delta_min, spec.delta_max, spec.points)
    states = np.empty((spec.points, 4, 4), dtype=np.complex128)
    liouv = np.empty((min(_BLOCK, spec.points), 16, 16), dtype=np.complex128)
    for start in range(0, spec.points, _BLOCK):
        block = grid[start : start + _BLOCK]
        try:
            for k, delta in enumerate(block):
                liouv[k] = generator(delta)
            states[start : start + len(block)] = steady_state(liouv[: len(block)])
        except SimulationError:
            for delta in block:
                try:
                    steady_state(generator(delta))
                except SimulationError as exc:
                    raise SweepError(
                        f"sweep aborted at probe detuning {float(delta)!r}: {exc}"
                    ) from exc
            raise
    return SweepResult(delta=grid, states=states)


def _below_runs(values: np.ndarray, threshold: float) -> list[list[int]]:
    runs: list[list[int]] = []
    start = None
    for k, value in enumerate(values):
        if value < threshold:
            if start is None:
                start = k
        elif start is not None:
            runs.append([start, k - 1])
            start = None
    if start is not None:
        runs.append([start, len(values) - 1])
    return runs


def _merge_runs(runs: list[list[int]]) -> list[list[int]]:
    merged: list[list[int]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] - 1 < _MERGE_GAP:
            merged[-1][1] = run[1]
        else:
            merged.append(run)
    return merged


def _has_interior_minimum(values: np.ndarray, start: int, end: int) -> bool:
    last = len(values) - 1
    for k in range(max(start, 1), min(end, last - 1) + 1):
        if values[k] <= values[k - 1] and values[k] <= values[k + 1]:
            return True
    return False


def _crossing(x: np.ndarray, y: np.ndarray, inside: int, outside: int, threshold: float) -> float:
    # Linear interpolation of the threshold crossing between an outside
    # sample (>= threshold) and the adjacent inside sample (< threshold).
    rise = y[inside] - y[outside]
    if rise == 0.0:
        return float(x[inside])
    frac = (threshold - y[outside]) / rise
    return float(x[outside] + frac * (x[inside] - x[outside]))


def detect_windows(
    result: SweepResult, observable: str, threshold_fraction: float = 0.1
) -> list[EitWindow]:
    """Find transparency windows of an absorption column.

    The threshold is threshold_fraction times the maximum of the observable
    over the sweep.  Maximal below-threshold runs are merged across gaps of
    a single above-threshold sample; a run only counts as a window if it
    contains an interior local minimum, which drops monotone tails at the
    scan edges.  Windows come back ordered by center.  A column that never
    absorbs (maximum <= 0) has no windows: its threshold would lie above
    every sample.
    """
    if not observable.startswith("im_"):
        raise ValueError(f"windows are defined on im_* columns, got {observable!r}")
    y = result.column(observable)
    x = result.delta
    if len(y) < 3:
        raise ValueError("window detection needs at least 3 grid points")
    peak = float(np.max(y))
    if peak <= 0.0:
        return []
    threshold = threshold_fraction * peak
    runs = _merge_runs(_below_runs(y, threshold))
    windows = []
    for start, end in runs:
        if not _has_interior_minimum(y, start, end):
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

    Intended for im_* columns, where a strictly negative value means the
    medium amplifies the field instead of absorbing it.
    """
    y = result.column(observable)
    return [
        (float(result.delta[start]), float(result.delta[end]))
        for start, end in _below_runs(y, _GAIN_THRESHOLD)
    ]
