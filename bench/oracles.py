"""Independent correctness checks for benchmark outputs.

Each check recomputes a result by a route the package does not take (LAPACK
solves and eigensolves, scipy's matrix exponential, exact comparison of
parsed values) and raises OracleMismatch when the output deviates by more
than the stated tolerance.  On success a check returns the largest deviation
it saw, so runs can print how close each output came.  The checks run
outside the timed region.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg

from diamondsim.atom import Scenario, closure_complete
from diamondsim.lindblad import build_liouvillian
from diamondsim.sweep import CSV_COLUMNS

#: Steady states from Gaussian elimination and from LAPACK agree to ~1e-15.
STEADY_TOL = 1e-11
#: RK4 at dt = 1e-3 has converged to the steady state by t = 200.
EVOLVE_FINAL_TOL = 1e-10
#: Intermediate RK4 samples carry the truncation error of the method,
#: about (dt |lambda|)^5 / 120 per step for the fastest mode.  At dt = 1e-3
#: the worst sample error over the corners of the generator's parameter box
#: (every Rabi frequency 0 or 20, every decay rate 0.5 or 2) is 2.3e-6; the
#: tolerance leaves a factor of ten above that.
TRAJECTORY_TOL = 2e-5
DRESSED_TOL = 1e-10

_POPULATIONS = [0, 5, 10, 15]


class OracleMismatch(Exception):
    """An output disagrees with its independent reference."""


def _require(deviation: float, tol: float, what: str) -> float:
    if not deviation <= tol:
        raise OracleMismatch(f"{what}: deviation {deviation:.3e} exceeds {tol:.1e}")
    return deviation


def reference_steady(scenario: Scenario) -> np.ndarray:
    """Steady state by np.linalg.solve with the (a, a) row replaced by the trace."""
    liouv = build_liouvillian(closure_complete(scenario))
    system = liouv.copy()
    system[0, :] = 0.0
    system[0, _POPULATIONS] = 1.0
    rhs = np.zeros(16, dtype=np.complex128)
    rhs[0] = 1.0
    rho = np.linalg.solve(system, rhs).reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


def check_steady(scenario: Scenario, rho: np.ndarray) -> float:
    deviation = float(np.max(np.abs(rho - reference_steady(scenario))))
    return _require(deviation, STEADY_TOL, "steady state")


def check_sweep_states(
    base: Scenario, delta_min: float, delta_max: float, points: int,
    delta: np.ndarray, states: np.ndarray,
) -> float:
    """Every row of a probe scan against its reference steady state."""
    grid = np.linspace(delta_min, delta_max, points)
    if delta.shape != grid.shape or not np.array_equal(delta, grid):
        raise OracleMismatch("sweep grid differs from the requested linspace")
    worst = 0.0
    for k, value in enumerate(grid):
        reference = reference_steady(replace(base, delta_c2=float(value)))
        worst = max(worst, float(np.max(np.abs(states[k] - reference))))
    return _require(worst, STEADY_TOL, "sweep rows")


def states_from_sweep_csv(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(delta, states) from the bytes of a sweep CSV, Hermitian by construction."""
    lines = data.decode("ascii").splitlines()
    if tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise OracleMismatch(f"unexpected CSV header {lines[0]!r}")
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    column = dict(zip(CSV_COLUMNS, table.T))
    states = np.zeros((len(table), 4, 4), dtype=np.complex128)
    levels = "abcd"
    for i, level in enumerate(levels):
        states[:, i, i] = column[f"rho_{level}{level}"]
    for key in CSV_COLUMNS:
        if key.startswith("re_"):
            i, j = levels.index(key[3]), levels.index(key[4])
            states[:, i, j] = column[key] + 1j * column["im_" + key[3:]]
            states[:, j, i] = states[:, i, j].conj()
    return column["delta"], states


def state_from_entry_csv(data: bytes) -> np.ndarray:
    """4x4 state from the `entry,re,im` CSV the steady and evolve commands write."""
    lines = data.decode("ascii").splitlines()
    if lines[0] != "entry,re,im" or len(lines) != 17:
        raise OracleMismatch("unexpected state CSV layout")
    rho = np.zeros((4, 4), dtype=np.complex128)
    for line in lines[1:]:
        label, re, im = line.split(",")
        rho["abcd".index(label[0]), "abcd".index(label[1])] = complex(float(re), float(im))
    return rho


def _ground_vector() -> np.ndarray:
    v = np.zeros(16, dtype=np.complex128)
    v[5] = 1.0
    return v


def check_evolve_final(scenario: Scenario, t_final: float, rho: np.ndarray) -> float:
    liouv = build_liouvillian(closure_complete(scenario))
    exact = (scipy.linalg.expm(t_final * liouv) @ _ground_vector()).reshape(4, 4)
    exact = 0.5 * (exact + exact.conj().T)
    deviation = float(np.max(np.abs(rho - exact)))
    return _require(deviation, EVOLVE_FINAL_TOL, "evolve final state")


def check_trajectory(
    scenario: Scenario, times: np.ndarray, states: np.ndarray, tol: float = TRAJECTORY_TOL
) -> float:
    """Raw trajectory samples against exp(t L) applied to the ground state."""
    liouv = build_liouvillian(closure_complete(scenario))
    v0 = _ground_vector()
    worst = 0.0
    for t, state in zip(times, states):
        exact = (scipy.linalg.expm(float(t) * liouv) @ v0).reshape(4, 4)
        worst = max(worst, float(np.max(np.abs(state - exact))))
    return _require(worst, tol, "trajectory samples")


def check_dressed(scenario: Scenario, eigenvalues: np.ndarray) -> float:
    """Drive-only eigenvalues against LAPACK on the c-a-b-d chain."""
    s = scenario
    chain = np.array(
        [
            [0.0, s.omega_a1, s.omega_c1, 0.0],
            [s.omega_a1, 0.0, 0.0, s.omega_a2],
            [s.omega_c1, 0.0, 0.0, 0.0],
            [0.0, s.omega_a2, 0.0, 0.0],
        ]
    )
    reference = np.linalg.eigvalsh(chain)
    deviation = float(np.max(np.abs(np.asarray(eigenvalues) - reference)))
    return _require(deviation, DRESSED_TOL, "dressed eigenvalues")


def check_equal(expected, actual, what: str) -> float:
    """Exact equality, as for a config round trip."""
    if expected != actual:
        raise OracleMismatch(f"{what}: {actual!r} != {expected!r}")
    return 0.0
