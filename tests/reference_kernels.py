"""Straightforward numpy versions of the per-point kernels, the tests' oracles.

build_liouvillian, herm_eigen and solve_linear in the package are written
for speed: cached dissipators, a Jacobi eigensolver on Python scalars, and
one elimination over a stack of augmented systems [a | b].  The versions
here are the plain ones: each term built by np.kron, rotations on numpy
slices, one system at a time with the right-hand side carried separately,
and a sweep that solves its grid one point at a time.  scalar_herm_eigen is
the package's Jacobi on Python scalars before its per-size rotation plan:
one call per rotation, a skip test per index, sum() for the stopping mass.
test_reference_kernels holds the routes together: L, the sweep states and
the scalar Jacobi's eigenvalues and eigenvectors bit for bit, the
numpy-slice eigenvalues to 1e-13 * (1 + ||A||_inf).  Test-only code; the
package never imports it.
"""

import math
from dataclasses import replace

import numpy as np

from diamondsim.algebra import EigenDecomposition, matrix_inf_norm
from diamondsim.atom import LEVELS, Scenario, build_hamiltonian, closure_complete, decay_channels

# Both Jacobi versions pin each eigenvector's phase as the package does: the
# lowest-index component within this relative distance of the largest
# magnitude is made real and positive.
_PIN_REL_TOL = 1e-8


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
        mags = np.abs(col)
        lead = int(np.argmax(mags >= (1.0 - _PIN_REL_TOL) * mags.max()))
        mag = mags[lead]
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


# The Jacobi on Python complex scalars as it stood before its rotation plan
# was cached per size and its rotation inlined into the sweep; the package's
# herm_eigen must match it bit for bit.
_JACOBI_REL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100
_HERMITICITY_REL_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-12


def scalar_herm_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi rotations.

    Rotations run in a fixed (p, q) order until the off-diagonal Frobenius
    mass falls below 1e-14 of the total, capped at 100 sweeps.  Eigenvalues
    come back ascending; eigenvector column k pairs with eigenvalue k.  The
    phase of each eigenvector is pinned by making its lowest-index component
    within a relative 1e-8 of the largest magnitude real and positive.

    Raises ValueError for non-square or non-Hermitian input and RuntimeError
    if the decomposition fails its own residual checks.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"herm_eigen requires a square matrix, got shape {mat.shape}")
    scale = matrix_inf_norm(mat)
    if matrix_inf_norm(mat - mat.conj().T) >= _HERMITICITY_REL_TOL * (1.0 + scale):
        raise ValueError("herm_eigen requires a Hermitian matrix")

    n = mat.shape[0]
    values, columns = _scalar_jacobi(mat.tolist())
    order = sorted(range(n), key=values.__getitem__)
    pinned = []
    for k in order:
        col = columns[k]
        floor = (1.0 - _PIN_REL_TOL) * max(abs(z) for z in col)
        lead = next(z for z in col if abs(z) >= floor)
        mag = abs(lead)
        if mag > 0.0:
            factor = lead.conjugate() / mag
            col = [z * factor for z in col]
        pinned.append(col)
    values = np.array([values[k] for k in order])
    vectors = np.array(pinned, dtype=np.complex128).T.copy()

    residual = np.max(np.abs(mat @ vectors - vectors * values[np.newaxis, :]))
    if residual >= _RESIDUAL_REL_TOL * (1.0 + scale):
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} out of tolerance")
    gram = vectors.conj().T @ vectors - np.eye(n)
    if np.max(np.abs(gram)) >= _ORTHONORMALITY_TOL:
        raise RuntimeError("eigenvector columns lost orthonormality")
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def _scalar_jacobi(work: list[list[complex]]) -> tuple[list[float], list[list[complex]]]:
    # work holds the rows of the matrix as lists of Python complex numbers;
    # the eigenvectors come back as a list of columns.
    n = len(work)
    columns = [[1.0 + 0j if i == j else 0j for i in range(n)] for j in range(n)]
    total = math.sqrt(sum(z.real * z.real + z.imag * z.imag for row in work for z in row))
    if total == 0.0:
        return [0.0] * n, columns
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = math.sqrt(
            sum(
                z.real * z.real + z.imag * z.imag
                for i, row in enumerate(work)
                for j, z in enumerate(row)
                if i != j
            )
        )
        if off < _JACOBI_REL_TOL * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _scalar_rotate(work, columns, p, q)
    else:
        raise RuntimeError("Jacobi iteration did not converge within 100 sweeps")
    return [work[k][k].real for k in range(n)], columns


def _scalar_rotate(work: list[list[complex]], columns: list[list[complex]], p: int, q: int) -> None:
    row_p = work[p]
    row_q = work[q]
    apq = row_p[q]
    babs = abs(apq)
    if babs == 0.0:
        return
    phase = apq / babs
    app = row_p[p].real
    aqq = row_q[q].real
    tau = (aqq - app) / (2.0 * babs)
    # Smaller root of t^2 + 2*tau*t - 1 = 0, for the rotation angle <= pi/4.
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    # Unitary J: J[p,p] = c*phase, J[p,q] = s*phase, J[q,p] = -s, J[q,q] = c;
    # work <- J^H work J zeroes the (p, q) element.  Columns p and q are
    # rotated, then rows p and q; the four entries where they cross are set
    # from the closed form afterwards, so the loops skip them.
    c_phase = c * phase
    s_phase = s * phase
    c_conj = c * phase.conjugate()
    s_conj = s * phase.conjugate()
    for k in range(len(work)):
        if k == p or k == q:
            continue
        row = work[k]
        x = row[p]
        y = row[q]
        row[p] = c_phase * x - s * y
        row[q] = s_phase * x + c * y
        x = row_p[k]
        y = row_q[k]
        row_p[k] = c_conj * x - s * y
        row_q[k] = s_conj * x + c * y
    row_p[p] = app - t * babs
    row_q[q] = aqq + t * babs
    row_p[q] = 0j
    row_q[p] = 0j

    vec_p = columns[p]
    vec_q = columns[q]
    for i in range(len(vec_p)):
        x = vec_p[i]
        y = vec_q[i]
        vec_p[i] = c_phase * x - s * y
        vec_q[i] = s_phase * x + c * y
