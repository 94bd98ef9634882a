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
from collections.abc import Sequence

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


def check_density_matrix(
    rho: np.ndarray, context: str | Sequence[str] = "density matrix"
) -> None:
    """Enforce Hermiticity, unit trace, and positivity within tolerances.

    rho is one 4x4 matrix or a stack of shape (m, 4, 4).  Raises
    InvariantError when the Hermiticity defect or trace error is not below
    1e-9 (so a NaN entry fails), or the smallest eigenvalue of the
    symmetrized matrix drops below -1e-8.  The message starts with context;
    for a stack, context may also be one label per matrix.  The matrices
    are checked in order, each for Hermiticity, then trace, then
    positivity, so a stack raises what its first failing matrix raises
    alone, with its position as `index`; matrices after it are not
    eigensolved.
    """
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, got shape {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    labels = [context] * len(stack) if isinstance(context, str) else list(context)
    if len(labels) != len(stack):
        raise ValueError(f"expected {len(stack)} context labels, got {len(labels)}")
    adjoint = stack.conj().transpose(0, 2, 1)
    defect = matrix_inf_norm(stack - adjoint)
    trace_err = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    for k, symmetric in enumerate(0.5 * (stack + adjoint)):
        if not defect[k] < _HERMITICITY_TOL:
            message = f"Hermiticity defect {defect[k]:.3e} >= 1e-9"
        elif not trace_err[k] < _TRACE_TOL:
            message = f"|trace - 1| = {trace_err[k]:.3e} >= 1e-9"
        else:
            lowest = float(herm_eigen(symmetric).eigenvalues[0])
            if lowest >= _POSITIVITY_FLOOR:
                continue
            message = f"minimum eigenvalue {lowest:.3e} < -1e-8"
        raise InvariantError(f"{labels[k]}: {message}", index=k if rho.ndim == 3 else None)


_EYE = np.eye(4, dtype=np.complex128)
# np.kron(x, y) of 4x4 matrices is x[:, None, :, None] * y[None, :, None, :]
# reshaped to 16x16; these are the identity's two broadcast forms.
_EYE_RIGHT, _EYE_LEFT = _EYE[None, :, None, :], _EYE[:, None, :, None]


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
    # B (x) I - I (x) B^T, multiplied out as np.kron does it.
    commutator = coupling[:, None, :, None] * _EYE_RIGHT - _EYE_LEFT * coupling.T[None, :, None, :]
    liouv = (1j * commutator).reshape(16, 16)
    for channel, dissipator in zip(decay_channels(s), _DISSIPATORS):
        liouv += 0.5 * channel.rate * dissipator
    return liouv


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Unique steady state of the generator, as a valid density matrix.

    liouv is one 16x16 generator or a stack of shape (m, 16, 16); the
    states come back as (4, 4) or (m, 4, 4).  The row of L at the (a, a)
    population position is replaced by the trace condition and the
    resulting system solved.  The solution must satisfy
    ||L vec(rho)||_inf < 1e-10 * (1 + ||L||_inf) including the replaced row;
    it is then symmetrized and checked against the density-matrix
    invariants.  Any failure raises SteadyStateError ("non-unique or absent
    steady state"), e.g. when every decay rate vanishes.  A stack runs each
    step on all its generators at once; if any step fails, the generators
    are solved again one at a time, in order, and the first one that fails
    alone raises its own error, with its position as `index`.
    """
    liouv = np.asarray(liouv, dtype=np.complex128)
    if liouv.ndim not in (2, 3) or liouv.shape[-2:] != (16, 16):
        raise ValueError(f"expected a 16x16 generator or a stack of them, got shape {liouv.shape}")
    stack = liouv.reshape(-1, 16, 16)
    modified = stack.copy()
    modified[:, 0, :] = 0.0
    modified[:, 0, list(_DIAGONAL_POSITIONS)] = 1.0
    rhs = np.zeros((len(stack), 16), dtype=np.complex128)
    rhs[:, 0] = 1.0
    try:
        solution = solve_linear(modified, rhs)
        residual = np.max(np.abs(stack @ solution[:, :, np.newaxis]), axis=(1, 2))
        bound = _STEADY_RESIDUAL_REL_TOL * (1.0 + matrix_inf_norm(stack))
        over = residual >= bound
        if over.any():
            k = over.argmax()
            raise SimulationError(f"residual {residual[k]:.3e} exceeds {bound[k]:.3e}")
        rho = solution.reshape(-1, 4, 4)
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        check_density_matrix(rho, context="steady state")
    except SimulationError as exc:
        if liouv.ndim == 3:
            for k, generator in enumerate(liouv):
                try:
                    steady_state(generator)
                except SteadyStateError as alone:
                    alone.index = k
                    raise
        raise SteadyStateError(f"non-unique or absent steady state: {exc}") from exc
    return rho if liouv.ndim == 3 else rho[0]


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
    # also recorded at `samples` evenly spaced steps, the last one on the
    # final step.  The state jumps from one checkpoint to the next by a
    # power of the step matrix S: the same iterate as stepping one at a
    # time, with the products taken in another order.
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
            records.append((step, _from_trace_coordinates(state)))
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
    so the last sample falls on the final step.  The samples are checked
    against the density-matrix invariants in one stack after stepping; a
    violation raises InvariantError naming the first failing step.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples!r}")
    liouv = build_liouvillian(s)
    _, pairs = _propagate(liouv, rho0, t_final, dt, samples=samples)
    states = np.array([state for _, state in pairs])
    check_density_matrix(states, context=[f"state at step {step}" for step, _ in pairs])
    times = np.array([step * dt for step, _ in pairs])
    return times, states
