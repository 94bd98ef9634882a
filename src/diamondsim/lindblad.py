"""Master-equation generator, steady states, and fixed-step time evolution.

The generator acts on the row-major vectorization of the density matrix in
basis order (a, b, c, d): entry rho[i, j] is component 4*i + j of vec(rho).
The coherent part is +i[B, rho] with B from atom.build_hamiltonian; the
dissipative part is the standard Lindblad form

    sum_k gamma_k/2 (2 A_k rho A_k^H - A_k^H A_k rho - rho A_k^H A_k)

with jump operators |a><c|, |d><c|, |b><a|, |b><d| at rates gamma1..gamma4.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import herm_eigen, matrix_inf_norm, solve_linear
from .atom import LEVELS, Scenario, build_hamiltonian, decay_channels
from .errors import SimulationError

__all__ = [
    "InvariantError",
    "MAX_STEPS",
    "StabilityError",
    "SteadyStateError",
    "build_liouvillian",
    "check_density_matrix",
    "evolve",
    "evolve_trajectory",
    "ground_state",
    "steady_state",
    "unvec",
    "vec",
]

_B = 1
_HERMITICITY_TOL = 1e-9
_TRACE_TOL = 1e-9
_POSITIVITY_FLOOR = -1e-8
_STEADY_RESIDUAL_REL_TOL = 1e-10
#: Largest step count evolve accepts: round(t_final / dt) above it is rejected.
MAX_STEPS = 10**9
# vec(rho) positions of the populations, row-major: (i, i) -> 5*i.
_DIAGONAL_POSITIONS = (0, 5, 10, 15)
_LATER_POPULATIONS = list(_DIAGONAL_POSITIONS[1:])


class SteadyStateError(SimulationError):
    """No unique physical steady state could be extracted."""


class StabilityError(SimulationError):
    """The requested time step is too large for stable explicit integration."""


class InvariantError(SimulationError):
    """A state violated the density-matrix invariants."""


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization: rho[i, j] lands at position 4*i + j."""
    return np.asarray(rho, dtype=np.complex128).reshape(16)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec."""
    return np.asarray(v, dtype=np.complex128).reshape(4, 4)


def ground_state() -> np.ndarray:
    """Density matrix with all population in the ground level |b>."""
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[_B, _B] = 1.0
    return rho


def check_density_matrix(rho: np.ndarray, context: str = "density matrix") -> None:
    """Enforce Hermiticity, unit trace, and positivity within tolerances.

    Raises InvariantError when the Hermiticity defect or trace error reaches
    1e-9, or the smallest eigenvalue of the symmetrized matrix drops below
    -1e-8.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    defect = matrix_inf_norm(rho - rho.conj().T)
    if defect >= _HERMITICITY_TOL:
        raise InvariantError(f"{context}: Hermiticity defect {defect:.3e} >= 1e-9")
    trace_err = abs(complex(np.trace(rho)) - 1.0)
    if trace_err >= _TRACE_TOL:
        raise InvariantError(f"{context}: |trace - 1| = {trace_err:.3e} >= 1e-9")
    symmetric = 0.5 * (rho + rho.conj().T)
    lowest = float(herm_eigen(symmetric).eigenvalues[0])
    if lowest < _POSITIVITY_FLOOR:
        raise InvariantError(f"{context}: minimum eigenvalue {lowest:.3e} < -1e-8")


_EYE = np.eye(4, dtype=np.complex128)


def _dissipator(from_level: str, to_level: str) -> np.ndarray:
    # 2 A (x) A* - A^H A (x) I - I (x) (A^H A)^T for the jump A = |to><from|:
    # the channel's dissipative superoperator at rate 2, independent of s.
    op = np.zeros((4, 4), dtype=np.complex128)
    op[LEVELS.index(to_level), LEVELS.index(from_level)] = 1.0
    backflow = op.conj().T @ op
    return 2.0 * np.kron(op, op.conj()) - np.kron(backflow, _EYE) - np.kron(_EYE, backflow.T)


# One dissipator per decay channel, in decay_channels order.
_DISSIPATORS = tuple(
    _dissipator(channel.from_level, channel.to_level) for channel in decay_channels(Scenario())
)


def build_liouvillian(s: Scenario) -> np.ndarray:
    """Assemble the 16x16 generator L with drho/dt = L vec(rho).

    Expects a closure-completed Scenario.  The four rows at the population
    positions sum to the zero row exactly, so L conserves the trace.
    """
    coupling = build_hamiltonian(s).astype(np.complex128)
    liouv = 1j * (np.kron(coupling, _EYE) - np.kron(_EYE, coupling.T))
    for channel, dissipator in zip(decay_channels(s), _DISSIPATORS):
        liouv += 0.5 * channel.rate * dissipator
    return liouv


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Unique steady state of the generator, as a valid density matrix.

    The row of L at the (a, a) population position is replaced by the trace
    condition and the resulting system solved.  The solution must satisfy
    ||L vec(rho)||_inf < 1e-10 * (1 + ||L||_inf) including the replaced row;
    it is then symmetrized and checked against the density-matrix
    invariants.  Any failure raises SteadyStateError ("non-unique or absent
    steady state"), e.g. when every decay rate vanishes.
    """
    liouv = np.asarray(liouv, dtype=np.complex128)
    if liouv.shape != (16, 16):
        raise ValueError(f"expected a 16x16 generator, got shape {liouv.shape}")
    modified = liouv.copy()
    modified[0, :] = 0.0
    modified[0, list(_DIAGONAL_POSITIONS)] = 1.0
    rhs = np.zeros(16, dtype=np.complex128)
    rhs[0] = 1.0
    try:
        solution = solve_linear(modified, rhs)
    except SimulationError as exc:
        raise SteadyStateError(f"non-unique or absent steady state: {exc}") from exc

    residual = float(np.max(np.abs(liouv @ solution)))
    bound = _STEADY_RESIDUAL_REL_TOL * (1.0 + matrix_inf_norm(liouv))
    if residual >= bound:
        raise SteadyStateError(
            f"non-unique or absent steady state: residual {residual:.3e} exceeds {bound:.3e}"
        )
    rho = unvec(solution)
    rho = 0.5 * (rho + rho.conj().T)
    try:
        check_density_matrix(rho, context="steady state")
    except InvariantError as exc:
        raise SteadyStateError(f"non-unique or absent steady state: {exc}") from exc
    return rho


def _rk4_step_matrix(liouv: np.ndarray, dt: float) -> np.ndarray:
    # One classical RK4 step of a linear autonomous system equals multiplying
    # by the degree-4 Taylor polynomial of exp(dt L); precompute it once.
    hl = dt * liouv
    hl2 = hl @ hl
    hl3 = hl2 @ hl
    hl4 = hl3 @ hl
    return np.eye(16, dtype=np.complex128) + hl + hl2 / 2.0 + hl3 / 6.0 + hl4 / 24.0


def _from_trace_coordinates(state: np.ndarray) -> np.ndarray:
    # Undo _propagate's change of coordinates, which adds the populations at
    # 5, 10, 15 into position 0 so that it holds the trace.
    rho = state.copy()
    rho[0] -= rho[_LATER_POPULATIONS].sum()
    return unvec(rho)


def _power(squares: list[np.ndarray], n: int) -> np.ndarray:
    # S^n for n >= 1 by binary powering; squares holds S, S^2, S^4, ... and
    # grows on demand, so every power taken from it shares the squarings.
    result = None
    for bit in range(n.bit_length()):
        if bit == len(squares):
            squares.append(squares[-1] @ squares[-1])
        if n >> bit & 1:
            result = squares[bit] if result is None else result @ squares[bit]
    return result


def _propagate(
    liouv: np.ndarray,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    samples: int = 0,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    # Runs round(t_final / dt) RK4 steps.  With samples > 0 the raw state is
    # also recorded and checked at `samples` evenly spaced steps, the last
    # one on the final step.  The state jumps from one checkpoint to the
    # next by a power of the step matrix S: the same iterate as stepping one
    # at a time, with the products taken in another order.
    #
    # S is built from the generator in trace coordinates, where position 0
    # holds the trace.  A generator that keeps the trace has a zero first
    # row there, so S has first row (1, 0, ..., 0) and every power of it
    # keeps the trace to rounding.  Powers of S in the plain basis drift by
    # about 2e-17 per step instead: each squaring doubles the rounding in
    # S's unit eigenvalue.
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and non-negative, got {t_final!r}")
    ratio = t_final / dt
    if ratio > MAX_STEPS + 0.5:
        raise ValueError(
            f"t_final / dt = {ratio:.3e} steps exceeds the cap of {MAX_STEPS:.0e} steps"
        )
    n_steps = int(round(ratio))
    if samples and n_steps < 1:
        raise ValueError("t_final is too short for the requested dt")
    norm = matrix_inf_norm(liouv)
    if dt * norm >= 0.5:
        raise StabilityError(
            f"dt * ||L||_inf = {dt * norm:.3f} >= 0.5; reduce dt below {0.5 / norm:.3e}"
        )
    check_density_matrix(rho0, context="initial state")
    # Past one sample a step, further marks would only repeat steps.
    samples = min(samples, n_steps)
    marks = np.linspace(0, n_steps, samples + 1)[1:] if samples else []
    targets = {int(round(m)) for m in marks}
    generator = liouv.copy()
    generator[0] = liouv[list(_DIAGONAL_POSITIONS)].sum(axis=0)
    generator[:, _LATER_POPULATIONS] -= generator[:, :1]
    squares = [_rk4_step_matrix(generator, dt)]
    powers: dict[int, np.ndarray] = {}
    state = vec(rho0).copy()
    state[0] += state[_LATER_POPULATIONS].sum()
    records: list[tuple[int, np.ndarray]] = []
    reached = 0
    for step in sorted((targets | {n_steps}) - {0}):
        gap = step - reached
        if gap not in powers:
            powers[gap] = _power(squares, gap)
        state = powers[gap] @ state
        reached = step
        if step in targets:
            rho = _from_trace_coordinates(state)
            check_density_matrix(rho, context=f"state at step {step}")
            records.append((step, rho))
    return _from_trace_coordinates(state), records


def evolve(
    s: Scenario,
    rho0: np.ndarray,
    t_final: float = 200.0,
    dt: float = 1e-3,
) -> np.ndarray:
    """Integrate the master equation and return the final state.

    Classical fixed-step fourth-order Runge-Kutta on dvec(rho)/dt =
    L vec(rho), running round(t_final / dt) steps.  One step multiplies by a
    fixed matrix S, so the run is one power of S, formed by repeated
    squaring.  dt must be finite and positive, t_final finite and
    non-negative, and the step count at most MAX_STEPS (10^9); otherwise
    ValueError.  The step must satisfy the stability guard
    dt * ||L||_inf < 0.5.  The final state is symmetrized and validated
    before being returned.  Expects a closure-completed Scenario.
    """
    liouv = build_liouvillian(s)
    final, _ = _propagate(liouv, rho0, t_final, dt)
    final = 0.5 * (final + final.conj().T)
    check_density_matrix(final, context="final state")
    return final


def evolve_trajectory(
    s: Scenario,
    rho0: np.ndarray,
    t_final: float = 200.0,
    dt: float = 1e-3,
    samples: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate as evolve does, recording evenly spaced raw samples.

    Returns (times, states) with states[k] the unsymmetrized state at
    times[k] = step * dt; the steps are round(j * n / samples) for
    j = 1..samples and n = round(t_final / dt), without repeats or step 0,
    so the last sample falls on the final step.  Every sample is checked
    against the density-matrix invariants and a violation raises
    InvariantError naming the step.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples!r}")
    liouv = build_liouvillian(s)
    _, pairs = _propagate(liouv, rho0, t_final, dt, samples=samples)
    times = np.array([step * dt for step, _ in pairs])
    states = np.array([state for _, state in pairs])
    return times, states
