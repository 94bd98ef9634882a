"""Master-equation generator, steady states, and fixed-step time evolution.

The generator acts on the row-major vectorization of the density matrix in
basis order (a, b, c, d): entry rho[i, j] is component 4*i + j of vec(rho).
The coherent part is +i[B, rho] with B from atom.build_hamiltonian; the
dissipative part is the standard Lindblad form

    sum_k gamma_k/2 (2 A_k rho A_k^H - A_k^H A_k rho - rho A_k^H A_k)

with jump operators |a><c|, |d><c|, |b><a|, |b><d| at rates gamma1..gamma4.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections.abc import Sequence

import numpy as np

from .algebra import herm_eigen, matrix_inf_norm, solve_linear
from .atom import LEVELS, Scenario, _check_count, _check_numbers, build_hamiltonian
from .errors import InputError, SimulationError

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
]

_B = LEVELS.index("b")
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


def ground_state() -> np.ndarray:
    """Density matrix with all population in the ground level |b>."""
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[_B, _B] = 1.0
    return rho


def check_density_matrix(
    rho: np.ndarray, context: str | Sequence[str] = "density matrix"
) -> np.ndarray:
    """Enforce Hermiticity, unit trace, and positivity within tolerances.

    rho is one 4x4 matrix or a stack of shape (m, 4, 4); returns the
    symmetrized state 0.5 (rho + rho^H) in rho's shape.  Raises
    InvariantError when rho's own Hermiticity defect or trace error is not
    below 1e-9 (so a NaN entry fails), or the smallest eigenvalue of the
    symmetrized matrix drops below -1e-8 or its eigensolve fails or refuses
    it (with herm_eigen's text).  The message starts with context; for a
    stack, context may also be one label per matrix.  The matrices are
    checked in order, each for Hermiticity, then trace, then positivity, so
    a stack raises what its first failing matrix raises alone, with its
    position as `index`; matrices after it are not eigensolved.  Each
    distinct matrix is eigensolved once: one whose bytes repeat an earlier
    one's (as a trajectory's samples do once the state settles) passes as
    that one did, since a failure would have raised there.
    """
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, got shape {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    labels = [context] * len(stack) if isinstance(context, str) else list(context)
    if len(labels) != len(stack):
        raise ValueError(f"expected {len(stack)} context labels, got {len(labels)}")
    adjoint = stack.conj().transpose(0, 2, 1)
    # NaN from an inf entry's inf - inf, or inf from an overflow, fails the checks below.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = matrix_inf_norm(stack - adjoint).tolist()
        trace_err = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).tolist()
        symmetric = 0.5 * (stack + adjoint)
    passed: set[bytes] = set()
    for k in range(len(stack)):
        index = k if rho.ndim == 3 else None
        if not defect[k] < _HERMITICITY_TOL:
            message = f"Hermiticity defect {defect[k]:.3e} >= 1e-9"
        elif not trace_err[k] < _TRACE_TOL:
            message = f"|trace - 1| = {trace_err[k]:.3e} >= 1e-9"
        elif (key := stack[k].tobytes()) in passed:
            continue
        else:
            try:
                lowest = float(herm_eigen(symmetric[k]).eigenvalues[0])
            except (SimulationError, ValueError) as exc:
                raise InvariantError(f"{labels[k]}: {exc}", index=index) from exc
            if lowest >= _POSITIVITY_FLOOR:
                passed.add(key)
                continue
            message = f"minimum eigenvalue {lowest:.3e} < -1e-8"
        raise InvariantError(f"{labels[k]}: {message}", index=index)
    return symmetric if rho.ndim == 3 else symmetric[0]


_EYE = np.eye(4, dtype=np.complex128)
# Entry (4i + j, 4k + l) of B (x) I - I (x) B^T is B[i, k] d[j, l] - d[i, k] B[l, j]:
# flat positions 4i + k and 4l + j of B, and the two Kronecker deltas as
# complex 0/1 factors.  Multiplying by them, as np.kron does, keeps its
# signed zeros, which a bare gather of B's entries would not.
# Built from Python numbers: built by numpy casts, they raised the
# process's peak memory by about 0.25 MB.
_ENTRIES = list(itertools.product(range(4), repeat=4))
_IK = np.array([4 * i + k for i, j, k, l in _ENTRIES])
_LJ = np.array([4 * l + j for i, j, k, l in _ENTRIES])
_DELTA_JL = np.array([complex(j == l) for i, j, k, l in _ENTRIES])
_DELTA_IK = np.array([complex(i == k) for i, j, k, l in _ENTRIES])


def _dissipator(from_level: str, to_level: str) -> np.ndarray:
    # 2 A (x) A* - A^H A (x) I - I (x) (A^H A)^T for the jump A = |to><from|:
    # the channel's dissipative superoperator at rate 2, independent of s.
    op = np.zeros((4, 4), dtype=np.complex128)
    op[LEVELS.index(to_level), LEVELS.index(from_level)] = 1.0
    backflow = op.conj().T @ op
    return 2.0 * np.kron(op, op.conj()) - np.kron(backflow, _EYE) - np.kron(_EYE, backflow.T)


# The decay channels c -> a, c -> d, a -> b and d -> b as (from, to) levels,
# in rate order gamma1..gamma4, and one dissipator per channel.
_CHANNELS = (("c", "a"), ("c", "d"), ("a", "b"), ("d", "b"))
_DISSIPATORS = tuple(_dissipator(*channel) for channel in _CHANNELS)


@functools.lru_cache(maxsize=32)
def _dissipative_part(rates: bytes) -> np.ndarray:
    # sum_k gamma_k/2 D_k in channel order, for the four doubles
    # packed in `rates`.  The points of a sweep share their rates, so the sum
    # is built once per rate set; keying on the bytes keeps -0.0 and 0.0
    # apart.  Every caller gets this array, so it is read-only.
    terms = [0.5 * rate * d for rate, d in zip(struct.unpack("4d", rates), _DISSIPATORS)]
    total = functools.reduce(np.add, terms)
    total.flags.writeable = False
    return total


def build_liouvillian(s: Scenario) -> np.ndarray:
    """Assemble the 16x16 generator L with drho/dt = L vec(rho).

    Expects a closure-completed Scenario.  L conserves the trace: its four
    population rows sum to the zero row but in the rho_cc column (10), where
    gamma1 + gamma2 is rounded once and at most 2^-52 * max(gamma1, gamma2)
    is left.
    """
    coupling = build_hamiltonian(s).astype(np.complex128).ravel()
    # B (x) I - I (x) B^T, gathered entry by entry.
    commutator = coupling[_IK] * _DELTA_JL - _DELTA_IK * coupling[_LJ]
    liouv = (1j * commutator).reshape(16, 16)
    # The commutator part's real components and the dissipators' imaginary
    # ones are all zeros, so adding the channels' sum in one step gives the
    # bits that adding the channels one at a time gives.
    liouv += _dissipative_part(struct.pack("4d", s.gamma1, s.gamma2, s.gamma3, s.gamma4))
    return liouv


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Unique steady state of the generator, as a valid density matrix.

    liouv is one 16x16 generator or a stack of shape (m, 16, 16); the
    states come back as (4, 4) or (m, 4, 4).  A NaN or inf entry in L, or
    an inf-norm of L past the double range, is a ValueError.  The row of L
    at the (a, a) population position is replaced by the trace condition
    and the resulting system solved.  The solution must satisfy ||L vec(rho)||_inf < 1e-10 *
    (1 + ||L||_inf) including the replaced row and pass
    check_density_matrix unsymmetrized, which returns the result.  Any
    failure raises SteadyStateError ("non-unique or absent steady state"),
    e.g. when every decay rate vanishes.  A stack runs each step on all its
    generators at once; if a step fails, its generators are solved again
    alone, in order, and the first that fails raises its own error with its
    position as `index`.  One generator reruns nothing.
    """
    liouv = np.asarray(liouv, dtype=np.complex128)
    if liouv.ndim not in (2, 3) or liouv.shape[-2:] != (16, 16):
        raise ValueError(f"expected a 16x16 generator or a stack of them, got shape {liouv.shape}")
    stack = liouv.reshape(-1, 16, 16)
    # A NaN or inf entry or a row sum past the double range makes the norm
    # non-finite, and with it the residual bound, the replaced row's one guard.
    norm = matrix_inf_norm(stack)
    if not (norm < np.inf).all():
        raise ValueError("steady_state requires a generator whose inf-norm is finite")
    modified = stack.copy()
    modified[:, 0, :] = 0.0
    modified[:, 0, list(_DIAGONAL_POSITIONS)] = 1.0
    rhs = np.zeros((len(stack), 16), dtype=np.complex128)
    rhs[:, 0] = 1.0
    try:
        solution = solve_linear(modified, rhs)
        residual = np.max(np.abs(stack @ solution[:, :, np.newaxis]), axis=(1, 2))
        bound = _STEADY_RESIDUAL_REL_TOL * (1.0 + norm)
        if not (stationary := residual < bound).all():
            k = stationary.argmin()
            raise SimulationError(f"residual {residual[k]:.3e} exceeds {bound[k]:.3e}")
        rho = check_density_matrix(solution.reshape(-1, 4, 4), context="steady state")
    except SimulationError as exc:
        if liouv.ndim == 3:
            # By the module-level name, so a wrapper on steady_state sees each rerun.
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


def _propagate(
    liouv: np.ndarray,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    samples: int,
) -> tuple[list[int], np.ndarray]:
    # Runs round(t_final / dt) RK4 steps and returns the sampled steps as
    # Python ints (labels format them faster than numpy's) and the raw
    # states: rho0 as given, then the state at each of `samples` evenly
    # spaced steps, the last one on the final step.  evolve is the
    # one-sample run: its final state is states[-1], rho0's own bits after
    # zero steps, since only the stepped states leave trace coordinates.
    # The state jumps from one checkpoint to the next by a power of the step
    # matrix S: the same iterate as stepping one at a time, with the products
    # taken in another order.  np.linalg.matrix_power forms S^gap by binary
    # powering, once per distinct gap; a run has at most two.
    #
    # S is built from the generator in trace coordinates, where position 0
    # holds the trace.  L's population rows sum to zero but for one rounding
    # (see build_liouvillian), so S's first row is (1, 0, ..., 0) up to it
    # and every power of S keeps the trace to rounding.  Powers of S in the
    # plain basis drift by about 2e-17 per step instead: each squaring
    # doubles the rounding in S's unit eigenvalue.
    _check_numbers({"t_final": t_final, "dt": dt}, (("t_final", False), ("dt", True)))
    t_final, dt = float(t_final), float(dt)
    if not dt > 0.0:
        raise InputError(f"dt must be positive, got {dt!r}", ("dt",))
    ratio = t_final / dt
    if ratio > MAX_STEPS + 0.5:
        message = f"t_final / dt = {ratio:.3e} steps exceeds the cap of {MAX_STEPS:.0e} steps"
        raise InputError(message, ("t_final", "dt"))
    n_steps = int(round(ratio))
    norm = matrix_inf_norm(liouv)
    if dt * norm >= 0.5:
        raise StabilityError(
            f"dt * ||L||_inf = {dt * norm:.3e} >= 0.5; reduce dt below {0.5 / norm:.3e}"
        )
    if np.shape(rho0) != (4, 4):
        raise ValueError(f"rho0 must be one 4x4 density matrix, got shape {np.shape(rho0)}")
    check_density_matrix(rho0, context="initial state")
    # At most one mark a step; the marks ascend, so repeated steps are adjacent.
    marks = np.rint(np.linspace(0, n_steps, min(samples, n_steps) + 1)[1:])
    steps = marks[np.diff(marks, prepend=0.0) > 0].astype(int)
    generator = liouv.copy()
    generator[0] = liouv[list(_DIAGONAL_POSITIONS)].sum(axis=0)
    generator[:, _LATER_POPULATIONS] -= generator[:, :1]
    step_matrix = _rk4_step_matrix(generator, dt)
    powers: dict[int, np.ndarray] = {}
    state = np.array(rho0, dtype=np.complex128).reshape(16)
    state[0] += state[_LATER_POPULATIONS].sum()
    recorded = [np.ravel(rho0)]
    for gap in np.diff(steps, prepend=0).tolist():
        if gap not in powers:
            powers[gap] = np.linalg.matrix_power(step_matrix, gap)
        state = powers[gap] @ state
        recorded.append(state)
    # Back from trace coordinates, every stepped state at once: position 0
    # holds the trace, so take the populations at 5, 10, 15 out.
    raw = np.array(recorded, dtype=np.complex128)
    raw[1:, 0] -= raw[1:, _LATER_POPULATIONS].sum(axis=1)
    return steps.tolist(), raw.reshape(-1, 4, 4)


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
    squaring.  t_final (non-negative) and dt keep atom's number rule, and dt
    must be positive and the step count at most MAX_STEPS (10^9), else
    errors.InputError naming its inputs; both then run as Python floats.  dt
    must pass the stability guard dt * ||L||_inf < 0.5, rho0 must be one 4x4
    density matrix, and the final state (rho0 after zero steps) is returned
    as check_density_matrix symmetrizes it.  Expects a closure-completed Scenario.
    """
    _, states = _propagate(build_liouvillian(s), rho0, t_final, dt, samples=1)
    return check_density_matrix(states[-1], context="final state")


def evolve_trajectory(
    s: Scenario,
    rho0: np.ndarray,
    t_final: float = 200.0,
    dt: float = 1e-3,
    samples: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate as evolve does, recording evenly spaced raw samples.

    Returns (times, states) with states[k] the unsymmetrized state at
    times[k] = step * float(dt), doubles whatever dt's type, as the stepping
    reads it; the steps are round(j * n / samples), halves to even, for
    j = 1..samples and n = round(t_final / dt), without repeats or step 0,
    so the last sample falls on the final step.  The samples are
    checked in one check_density_matrix stack after stepping; a violation
    raises InvariantError naming the first failing step, with that
    sample's position as `index`.  samples must be an integer in [1, 10^6],
    the count rule of SweepSpec's points, and round(t_final / dt) at least 1
    after evolve's checks, naming t_final and dt; else errors.InputError.
    """
    _check_count("samples", samples, 1)
    steps, states = _propagate(build_liouvillian(s), rho0, t_final, dt, samples=samples)
    if not len(steps):
        raise InputError("t_final is too short for the requested dt", ("t_final", "dt"))
    check_density_matrix(states[1:], context=[f"state at step {step}" for step in steps])
    return np.asarray(steps) * float(dt), states[1:]
