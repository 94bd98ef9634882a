"""Straightforward numpy versions of the per-point kernels, the tests' oracles.

build_liouvillian, herm_eigen and solve_linear in the package are written
for speed: cached dissipators, a Jacobi eigensolver on Python scalars, and
one elimination over a stack of augmented systems [a | b].  The versions
here are the plain ones: each term built by np.kron, rotations on numpy
slices, one system at a time with the right-hand side carried separately,
and a sweep that solves its grid one point at a time.  test_reference_kernels
holds the two routes together: L and the sweep states bit for bit, the
eigenvalues to 1e-13 * (1 + ||A||_inf).  Test-only code; the package never
imports it.
"""

import math
from dataclasses import replace

import numpy as np

from diamondsim.algebra import EigenDecomposition
from diamondsim.atom import LEVELS, Scenario, build_hamiltonian, closure_complete, decay_channels


def build_liouvillian(s: Scenario) -> np.ndarray:
    """The generator with every term built by np.kron (14 calls)."""
    coupling = build_hamiltonian(s).astype(np.complex128)
    eye = np.eye(4, dtype=np.complex128)
    liouv = 1j * (np.kron(coupling, eye) - np.kron(eye, coupling.T))
    for channel in decay_channels(s):
        op = np.zeros((4, 4), dtype=np.complex128)
        op[LEVELS.index(channel.to_level), LEVELS.index(channel.from_level)] = 1.0
        backflow = op.conj().T @ op
        liouv += 0.5 * channel.rate * (
            2.0 * np.kron(op, op.conj()) - np.kron(backflow, eye) - np.kron(eye, backflow.T)
        )
    return liouv


def herm_eigen(a) -> EigenDecomposition:
    """Cyclic complex Jacobi on numpy arrays; ascending, phase-pinned columns."""
    work = np.array(a, dtype=np.complex128)
    values, vectors = _jacobi(work)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        mag = abs(col[lead])
        if mag > 0.0:
            vectors[:, k] = col * (col[lead].conjugate() / mag)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def _jacobi(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = work.shape[0]
    vectors = np.eye(n, dtype=np.complex128)
    total = float(np.linalg.norm(work))
    if total == 0.0:
        return np.zeros(n, dtype=np.float64), vectors
    for _ in range(100):
        off = float(np.linalg.norm(work - np.diag(np.diagonal(work))))
        if off < 1e-14 * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(work, vectors, p, q)
    else:
        raise RuntimeError("Jacobi iteration did not converge within 100 sweeps")
    return np.diagonal(work).real.copy(), vectors


def _rotate(work: np.ndarray, vectors: np.ndarray, p: int, q: int) -> None:
    apq = work[p, q]
    babs = abs(apq)
    if babs == 0.0:
        return
    phase = apq / babs
    app = work[p, p].real
    aqq = work[q, q].real
    tau = (aqq - app) / (2.0 * babs)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    col_p = work[:, p].copy()
    col_q = work[:, q].copy()
    work[:, p] = c * phase * col_p - s * col_q
    work[:, q] = s * phase * col_p + c * col_q
    row_p = work[p, :].copy()
    row_q = work[q, :].copy()
    pc = phase.conjugate()
    work[p, :] = c * pc * row_p - s * row_q
    work[q, :] = s * pc * row_p + c * row_q
    work[p, p] = app - t * babs
    work[q, q] = aqq + t * babs
    work[p, q] = 0.0
    work[q, p] = 0.0

    vcol_p = vectors[:, p].copy()
    vcol_q = vectors[:, q].copy()
    vectors[:, p] = c * phase * vcol_p - s * vcol_q
    vectors[:, q] = s * phase * vcol_p + c * vcol_q


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
    """Trace-row replacement solve, symmetrized, with the -1e-8 positivity floor."""
    modified = liouv.copy()
    modified[0, :] = 0.0
    modified[0, [0, 5, 10, 15]] = 1.0
    rhs = np.zeros(16, dtype=np.complex128)
    rhs[0] = 1.0
    rho = solve_linear(modified, rhs).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    lowest = herm_eigen(rho).eigenvalues[0]
    if lowest < -1e-8:
        raise ValueError(f"minimum eigenvalue {lowest:.3e} < -1e-8")
    return rho


def sweep_states(base: Scenario, grid: np.ndarray) -> np.ndarray:
    """Steady states over the probe grid, one point at a time."""
    return np.array([
        steady_state(build_liouvillian(closure_complete(replace(base, delta_c2=float(delta)))))
        for delta in grid
    ])
