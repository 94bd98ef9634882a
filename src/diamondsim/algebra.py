"""Minimal dense complex-matrix kernel.

Hermitian eigendecomposition and linear solves for the small matrices this
package works with (4x4 coupling matrices, 16x16 generators).  Both routines
are written out explicitly instead of delegating to LAPACK so that results
are bit-reproducible across runs and thread counts on one machine and numpy
build, and failure modes carry precise diagnostics (pivot index,
convergence state).  Across machines or builds the last bits may differ:
numpy may fuse the multiply and add of a complex product (FMA), Python's
scalar arithmetic never does.  Everything here is O(n^3), which is
irrelevant at these sizes: the cost is per-call overhead.  So the Jacobi
eigensolver runs on Python complex scalars instead of numpy slices, from a
rotation plan built once per matrix size, with explicit left-to-right sums
for its stopping test; and solve_linear eliminates a whole stack of
systems in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError

__all__ = [
    "EigenDecomposition",
    "SingularMatrixError",
    "herm_eigen",
    "matrix_inf_norm",
    "solve_linear",
]

# Jacobi sweeps stop once the off-diagonal Frobenius mass drops below this
# fraction of the total; 4x4 Hermitian inputs typically need 4-6 sweeps.
_JACOBI_REL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

# Relative pivot magnitude below which elimination declares the matrix singular.
_PIVOT_REL_TOL = 1e-14

_HERMITICITY_REL_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-12
# Components within this relative distance of the largest magnitude tie for the phase pin.
_PIN_REL_TOL = 1e-8


class SingularMatrixError(SimulationError):
    """Linear system is numerically singular.

    Attributes:
        pivot_index: elimination column whose pivot fell under the threshold.
    """

    def __init__(
        self, pivot_index: int, pivot_magnitude: float, threshold: float, index: int | None = None
    ):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is numerically singular at pivot {pivot_index} "
            f"(|pivot| = {pivot_magnitude:.3e}, threshold = {threshold:.3e})",
            index=index,
        )


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def matrix_inf_norm(a: np.ndarray):
    """Induced infinity norm (maximum absolute row sum); an array of them for a stack."""
    a = np.asarray(a)
    norms = np.abs(a).sum(axis=-1).max(axis=-1, initial=0.0)
    return float(norms) if a.ndim == 2 else norms


def herm_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi rotations.

    Rotations run in a fixed (p, q) order until the off-diagonal Frobenius
    mass falls below 1e-14 of the total, capped at 100 sweeps.  Eigenvalues
    come back ascending; eigenvector column k pairs with eigenvalue k.  Each
    eigenvector's phase follows one sign convention: its lowest-index
    component whose magnitude is within a relative 1e-8 of the largest is
    made real and positive.  Components that tie in magnitude, as in
    (|x> + |y>)/sqrt(2), differ in the last bit from one rounding to the
    next, and the tolerance keeps that bit from choosing the sign.

    Raises ValueError for empty, non-square, non-Hermitian or non-finite
    input and RuntimeError if the decomposition fails its own residual
    checks.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"herm_eigen requires a non-empty square matrix, got shape {mat.shape}")
    scale = matrix_inf_norm(mat)
    # Written so that a NaN defect or scale fails too.
    if not matrix_inf_norm(mat - mat.conj().T) < _HERMITICITY_REL_TOL * (1.0 + scale):
        raise ValueError("herm_eigen requires a finite Hermitian matrix")

    pairs, off_diagonal, eye = _rotation_plan(mat.shape[0])
    values, columns = _jacobi(mat.tolist(), pairs, off_diagonal)
    order = sorted(range(len(values)), key=values.__getitem__)
    pinned = []
    for k in order:
        col = columns[k]
        mags = list(map(abs, col))
        floor = (1.0 - _PIN_REL_TOL) * max(mags)
        lead = 0
        while mags[lead] < floor:
            lead += 1
        mag = mags[lead]
        if mag > 0.0:
            factor = col[lead].conjugate() / mag
            col = [z * factor for z in col]
        pinned.append(col)
    values = np.array([values[k] for k in order])
    vectors = np.array(pinned, dtype=np.complex128).T.copy()

    residual = np.abs(mat @ vectors - vectors * values).max()
    if residual >= _RESIDUAL_REL_TOL * (1.0 + scale):
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} out of tolerance")
    if np.abs(vectors.conj().T @ vectors - eye).max() >= _ORTHONORMALITY_TOL:
        raise RuntimeError("eigenvector columns lost orthonormality")
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


@functools.cache
def _rotation_plan(n: int) -> tuple:
    # Built once per size: (p, q, the other indices) for each rotation in
    # sweep order, the off-diagonal positions row by row, and the identity.
    indices = range(n)
    pairs = tuple(
        (p, q, tuple(k for k in indices if k != p and k != q))
        for p in indices
        for q in range(p + 1, n)
    )
    off_diagonal = tuple((i, j) for i in indices for j in indices if i != j)
    eye = np.eye(n)
    eye.flags.writeable = False
    return pairs, off_diagonal, eye


def _jacobi(
    work: list[list[complex]], pairs: tuple, off_diagonal: tuple
) -> tuple[list[float], list[list[complex]]]:
    # work holds the rows of the matrix as lists of Python complex numbers;
    # the eigenvectors come back as a list of columns.  The sums run left to
    # right, so they do not depend on how a Python version's sum() adds.
    n = len(work)
    columns = [[1.0 + 0j if i == j else 0j for i in range(n)] for j in range(n)]
    total = 0.0
    for row in work:
        for z in row:
            total += z.real * z.real + z.imag * z.imag
    if total == 0.0:
        return [0.0] * n, columns
    threshold = _JACOBI_REL_TOL * math.sqrt(total)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for i, j in off_diagonal:
            z = work[i][j]
            off += z.real * z.real + z.imag * z.imag
        if math.sqrt(off) < threshold:
            break
        for p, q, others in pairs:
            row_p = work[p]
            row_q = work[q]
            apq = row_p[q]
            babs = abs(apq)
            if babs == 0.0:
                continue
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

            # Unitary J: J[p,p] = c*phase, J[p,q] = s*phase, J[q,p] = -s,
            # J[q,q] = c; work <- J^H work J zeroes the (p, q) element.
            # Columns p and q are rotated, then rows p and q, at the other
            # indices; the four entries where they cross come from the
            # closed form.
            c_phase = c * phase
            s_phase = s * phase
            c_conj = c * phase.conjugate()
            s_conj = s * phase.conjugate()
            for k in others:
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
            for i, x in enumerate(vec_p):
                y = vec_q[i]
                vec_p[i] = c_phase * x - s * y
                vec_q[i] = s_phase * x + c * y
    else:
        raise RuntimeError("Jacobi iteration did not converge within 100 sweeps")
    return [row[k].real for k, row in enumerate(work)], columns


def solve_linear(a, b) -> np.ndarray:
    """Solve the dense complex system a @ x = b, or a stack of such systems.

    a is (n, n) with b of shape (n,), or a stack (m, n, n) with b of shape
    (m, n); x has the shape of b.  Gaussian elimination with partial
    pivoting runs once over the whole stack, on the augmented [a | b].  A
    pivot whose magnitude falls below 1e-14 * ||a||_inf raises
    SingularMatrixError carrying the pivot index; the computed solution is
    verified against the residual bound
    ||a x - b||_inf < 1e-10 * (1 + ||a||_inf * ||x||_inf).  A system whose
    pivot fails is carried on with a pivot of 1.0, so it cannot disturb the
    others; on a stack the error raised is that of the lowest-index failing
    system, with its position as `index`.  No system's arithmetic depends on
    the rest of the stack, so a stacked solve equals one-system solves bit
    for bit.
    """
    a0 = np.asarray(a, dtype=np.complex128)
    rhs0 = np.asarray(b, dtype=np.complex128)
    if a0.ndim not in (2, 3) or a0.shape[-1] != a0.shape[-2]:
        raise ValueError(
            f"solve_linear requires a square matrix or a stack of them, got shape {a0.shape}"
        )
    if rhs0.shape != a0.shape[:-1]:
        raise ValueError(
            f"solve_linear needs a right-hand side of shape {a0.shape[:-1]}, got {rhs0.shape}"
        )
    stacked = a0.ndim == 3
    if not stacked:
        a0 = a0[np.newaxis]
        rhs0 = rhs0[np.newaxis]
    m, n = rhs0.shape

    norm_a = matrix_inf_norm(a0)
    threshold = _PIVOT_REL_TOL * norm_a
    # Eliminate on [a | b]: the right-hand side rides along as column n.
    work = np.empty((m, n, n + 1), dtype=np.complex128)
    work[:, :, :n] = a0
    work[:, :, n] = rhs0
    rows = np.arange(m)
    # pivots[k, i]: |pivot| of system i at column k, after its row swap.
    pivots = np.empty((n, m))
    for k in range(n):
        lead = k + np.abs(work[:, k:, k]).argmax(axis=1)
        # Swap rows k and lead of every system; where lead == k it is a no-op.
        upper = work[rows, lead]
        work[rows, lead] = work[:, k]
        work[:, k] = upper
        diagonal = work[:, k, k]
        np.abs(diagonal, out=pivots[k])
        np.copyto(diagonal, 1.0, where=pivots[k] <= threshold)
        # Multipliers as a column times the pivot row: their outer product.
        work[:, k + 1 :, k + 1 :] -= (
            work[:, k + 1 :, k : k + 1] / work[:, k : k + 1, k : k + 1] * work[:, k : k + 1, k + 1 :]
        )

    # x as (m, n, 1) columns: each row dot below is a (1, r) @ (r, 1) matmul.
    x = np.zeros((m, n, 1), dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        dot = work[:, k : k + 1, k + 1 : n] @ x[:, k + 1 :]
        x[:, k, 0] = (work[:, k, n] - dot[:, 0, 0]) / work[:, k, k]

    residual = np.max(np.abs(a0 @ x - rhs0[:, :, np.newaxis]), axis=(1, 2), initial=0.0)
    bound = _RESIDUAL_REL_TOL * (1.0 + norm_a * np.max(np.abs(x), axis=(1, 2), initial=0.0))
    small = pivots <= threshold
    pivot_failed = small.any(axis=0)
    failing = np.flatnonzero(pivot_failed | (residual >= bound))
    if failing.size:
        j = int(failing[0])
        index = j if stacked else None
        if pivot_failed[j]:
            k = int(small[:, j].argmax())
            raise SingularMatrixError(k, float(pivots[k, j]), float(threshold[j]), index)
        raise SimulationError(
            f"linear solve residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}; "
            "system is ill-conditioned",
            index=index,
        )
    return x[:, :, 0] if stacked else x[0, :, 0]
