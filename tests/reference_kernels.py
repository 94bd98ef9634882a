"""Straightforward numpy versions of the per-point kernels, the tests' oracles.

build_liouvillian, herm_eigen and solve_linear in the package are written
for speed: cached dissipators, LAPACK's zheevd, and one elimination over a
stack of augmented systems [a | b].  The versions here are the plain ones:
each term built by np.kron, a cyclic complex Jacobi on numpy slices, one
system at a time with the right-hand side carried separately, and a sweep
that solves its grid one point at a time.  The Jacobi also runs on a whole
stack of matrices at once, so that every steady state of a preset sweep
can be checked against it.  test_reference_kernels holds the routes
together: L and the sweep states bit for bit, the eigenvalues to
1e-13 * (1 + ||A||_inf).  Test-only code; the package never imports it.
"""

from collections import namedtuple
from dataclasses import replace

import numpy as np

from diamondsim.algebra import matrix_inf_norm
from diamondsim.atom import LEVELS, Scenario, build_hamiltonian, closure_complete

# The Jacobi pins each eigenvector's phase as dressed_spectrum does: the
# lowest-index component within this relative distance of the largest
# magnitude is made real and positive.
_PIN_REL_TOL = 1e-8

#: herm_eigen's result fields, as np.linalg.eigh names them.
Eigensystem = namedtuple("Eigensystem", "eigenvalues eigenvectors")


def build_liouvillian(s: Scenario) -> np.ndarray:
    """The generator with every term built by np.kron (14 calls)."""
    coupling = build_hamiltonian(s).astype(np.complex128)
    eye = np.eye(4, dtype=np.complex128)
    liouv = 1j * (np.kron(coupling, eye) - np.kron(eye, coupling.T))
    # Decay c -> a, c -> d, a -> b, d -> b at gamma1..gamma4: jumps |to><from|.
    channels = (("c", "a"), ("c", "d"), ("a", "b"), ("d", "b"))
    for (from_level, to_level), rate in zip(channels, (s.gamma1, s.gamma2, s.gamma3, s.gamma4)):
        op = np.zeros((4, 4), dtype=np.complex128)
        op[LEVELS.index(to_level), LEVELS.index(from_level)] = 1.0
        backflow = op.conj().T @ op
        liouv += 0.5 * rate * (
            2.0 * np.kron(op, op.conj()) - np.kron(backflow, eye) - np.kron(eye, backflow.T)
        )
    return liouv


def herm_eigen(a) -> Eigensystem:
    """Cyclic complex Jacobi on numpy arrays; ascending, phase-pinned columns.

    a is one Hermitian matrix or a stack of them; the rotations run on the
    whole stack at once.
    """
    work = np.array(a, dtype=np.complex128)
    values, vectors = _jacobi(work.reshape(-1, *work.shape[-2:]))
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, np.newaxis, :], axis=2)
    for col in (matrix[:, k] for matrix in vectors for k in range(matrix.shape[1])):
        mags = np.abs(col)
        lead = int(np.argmax(mags >= (1.0 - _PIN_REL_TOL) * mags.max()))
        mag = mags[lead]
        if mag > 0.0:
            col *= col[lead].conjugate() / mag
    return Eigensystem(values.reshape(work.shape[:-1]), vectors.reshape(work.shape))


def _jacobi(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotates the (m, n, n) stack in place, every matrix through the same
    # (p, q) order.  A matrix whose off-diagonal mass is below 1e-14 of its
    # norm, or whose (p, q) entry is zero, gets the identity rotation.
    m, n, _ = work.shape
    vectors = np.tile(np.eye(n, dtype=np.complex128), (m, 1, 1))
    total = np.linalg.norm(work, axis=(1, 2))
    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(100):
        off = np.linalg.norm(work[:, off_diagonal], axis=1)
        active = (off >= 1e-14 * total) & (total > 0.0)
        if not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(work, vectors, p, q, active)
    else:
        raise RuntimeError("Jacobi iteration did not converge within 100 sweeps")
    return np.diagonal(work, axis1=1, axis2=2).real.copy(), vectors


def _rotate(work: np.ndarray, vectors: np.ndarray, p: int, q: int, active: np.ndarray) -> None:
    apq = work[:, p, q]
    babs = np.where(active, np.abs(apq), 0.0)
    live = babs > 0.0
    safe = np.where(live, babs, 1.0)
    phase = np.where(live, apq / safe, 1.0)
    app = work[:, p, p].real.copy()
    aqq = work[:, q, q].real.copy()
    tau = (aqq - app) / (2.0 * safe)
    # Smaller root of t^2 + 2*tau*t - 1 = 0, for the rotation angle <= pi/4;
    # hypot(1, tau) is sqrt(1 + tau^2) without overflow at a tiny (p, q) entry.
    t = np.where(live, np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    c_phase = (c * phase)[:, np.newaxis]
    s_phase = (s * phase)[:, np.newaxis]
    c, s = c[:, np.newaxis], s[:, np.newaxis]
    for mat in (work, vectors):
        col_p = mat[:, :, p].copy()
        col_q = mat[:, :, q].copy()
        mat[:, :, p] = c_phase * col_p - s * col_q
        mat[:, :, q] = s_phase * col_p + c * col_q
    row_p = work[:, p, :].copy()
    row_q = work[:, q, :].copy()
    work[:, p, :] = c_phase.conj() * row_p - s * row_q
    work[:, q, :] = s_phase.conj() * row_p + c * row_q
    # The four crossing entries from the closed form; an identity rotation
    # leaves them as they are.
    work[:, p, p] = np.where(live, app - t * babs, work[:, p, p])
    work[:, q, q] = np.where(live, aqq + t * babs, work[:, q, q])
    work[:, p, q] = np.where(live, 0.0, work[:, p, q])
    work[:, q, p] = np.where(live, 0.0, work[:, q, p])


def solve_linear(a, b) -> np.ndarray:
    """Partial-pivoting elimination with the right-hand side kept apart."""
    work = np.array(a, dtype=np.complex128)
    rhs = np.array(b, dtype=np.complex128)
    n = work.shape[0]
    for k in range(n):
        lead = int(np.argmax(np.abs(work[k:, k]))) + k
        if lead != k:
            work[[k, lead]] = work[[lead, k]]
            rhs[[k, lead]] = rhs[[lead, k]]
        factors = work[k + 1 :, k] / work[k, k]
        work[k + 1 :, k + 1 :] -= np.outer(factors, work[k, k + 1 :])
        work[k + 1 :, k] = 0.0
        rhs[k + 1 :] -= factors * rhs[k]

    x = np.zeros(n, dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - work[k, k + 1 :] @ x[k + 1 :]) / work[k, k]
    return x


def steady_state(liouv: np.ndarray) -> np.ndarray:
    """Trace-row replacement solve, symmetrized."""
    modified = liouv.copy()
    modified[0, :] = 0.0
    modified[0, [0, 5, 10, 15]] = 1.0
    rhs = np.zeros(16, dtype=np.complex128)
    rhs[0] = 1.0
    rho = solve_linear(modified, rhs).reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


def sweep_states(base: Scenario, grid: np.ndarray) -> np.ndarray:
    """Steady states over the probe grid, solved one point at a time.

    Every state must pass the -1e-8 positivity floor, checked by one Jacobi
    over the whole grid.
    """
    states = np.array([
        steady_state(build_liouvillian(closure_complete(replace(base, delta_c2=float(delta)))))
        for delta in grid
    ])
    lowest = herm_eigen(states).eigenvalues[:, 0].min()
    if lowest < -1e-8:
        raise ValueError(f"minimum eigenvalue {lowest:.3e} < -1e-8")
    return states
