"""Minimal dense complex-matrix kernel.

Hermitian eigendecomposition and linear solves for the small matrices this
package works with (4x4 coupling matrices, 16x16 generators).  At these
sizes the cost is per-call overhead, not the O(n^3) arithmetic.

herm_eigen runs LAPACK's zheevd through np.linalg.eigh, from the OpenBLAS
that numpy ships; a hand-written Jacobi on Python scalars cost about twice
as much per call.  Its eigenvalues only gate outputs (the positivity floor
of every steady state and trajectory sample) or feed the dressed census,
whose degenerate groups do not depend on the basis chosen inside them, so
no sweep, steady or evolve output byte depends on its last bits.
solve_linear stays hand-written: its solutions are the sweep's output bit
for bit, it reports the pivot that fell under its own threshold, and it
eliminates a whole stack of systems in one pass.

At these sizes both are bit-reproducible across runs and BLAS thread
counts on one machine and numpy build.  Across machines or builds the last
bits may differ (numpy may fuse the multiply and add of a complex product,
and OpenBLAS picks its kernels per CPU), and so may the eigenvector basis
inside a group of equal eigenvalues.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import SimulationError

__all__ = [
    "SingularMatrixError",
    "herm_eigen",
    "matrix_inf_norm",
    "solve_linear",
]

# Relative pivot magnitude below which elimination declares the matrix singular.
_PIVOT_REL_TOL = 1e-14

_HERMITICITY_REL_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-12


class SingularMatrixError(SimulationError):
    """Linear system is numerically singular; the message names the failing pivot."""

    def __init__(
        self, pivot_index: int, pivot_magnitude: float, threshold: float, index: int | None = None
    ):
        super().__init__(
            f"matrix is numerically singular at pivot {pivot_index} "
            f"(|pivot| = {pivot_magnitude:.3e}, threshold = {threshold:.3e})",
            index=index,
        )


def matrix_inf_norm(a: np.ndarray):
    """Induced infinity norm (maximum absolute row sum); an array of them for a stack."""
    a = np.asarray(a)
    norms = np.maximum.reduce(np.add.reduce(np.abs(a), axis=-1), axis=-1, initial=0.0)
    return float(norms) if a.ndim == 2 else norms


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    # herm_eigen's identity at size n, shared by every call of that size and
    # so read-only.
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def herm_eigen(a):
    """Eigendecomposition of a Hermitian matrix by LAPACK's zheevd.

    Returns np.linalg.eigh's own EighResult (eigenvalues, eigenvectors)
    once it has passed the checks below: eigenvalues ascending, eigenvector
    column k paired with eigenvalue k, and each column's phase as LAPACK
    leaves it.  Inside a group of equal eigenvalues the columns are an
    arbitrary orthonormal basis of the eigenspace.

    Raises ValueError for empty, non-square or non-Hermitian input and for
    input that is not finite or whose inf-norm overflows, and RuntimeError
    if LAPACK fails or the decomposition fails its own residual checks.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"herm_eigen requires a non-empty square matrix, got shape {mat.shape}")
    # An inf or NaN entry, or a row sum past the double range, leaves the
    # scale inf or NaN, which fails before the defect's inf - inf could warn.
    with np.errstate(over="ignore"):
        scale = matrix_inf_norm(mat)
        defect = matrix_inf_norm(mat - mat.conj().T) if scale < np.inf else np.nan
    if not defect < _HERMITICITY_REL_TOL * (1.0 + scale):
        raise ValueError("herm_eigen requires a finite Hermitian matrix")

    try:
        eig = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    values, vectors = eig
    # Written as `not x < bound`, so a NaN fails too.
    residual = np.maximum.reduce(np.abs(mat @ vectors - vectors * values), axis=None)
    if not residual < _RESIDUAL_REL_TOL * (1.0 + scale):
        raise RuntimeError(f"eigendecomposition residual {residual:.3e} out of tolerance")
    gram_defect = np.abs(vectors.conj().T @ vectors - _identity(len(values)))
    if not np.maximum.reduce(gram_defect, axis=None) < _ORTHONORMALITY_TOL:
        raise RuntimeError("eigenvector columns lost orthonormality")
    return eig


def solve_linear(a, b) -> np.ndarray:
    """Solve the dense complex system a @ x = b, or a stack of such systems.

    a is (n, n) with b of shape (n,), or a stack (m, n, n) with b of shape
    (m, n); x has the shape of b.  Gaussian elimination with partial
    pivoting runs once over the whole stack, on the augmented [a | b].  A
    non-finite entry of a or b raises ValueError first.  A pivot whose
    magnitude falls below 1e-14 * ||a||_inf raises SingularMatrixError
    naming the pivot's column; the computed solution is verified against
    the residual bound ||a x - b||_inf < 1e-10 * (1 + ||a||_inf * ||x||_inf)
    (a NaN residual fails it).  A system whose pivot fails is carried on
    with a pivot of 1.0 and a zero right-hand side, so it cannot disturb
    the others or overflow; on a stack the error raised is that of the
    lowest-index failing system, with its position as `index`.  No system's
    arithmetic depends on the rest of the stack, so a stacked solve equals
    one-system solves bit for bit.
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
    if not (np.isfinite(a0).all() and np.isfinite(rhs0).all()):
        raise ValueError("solve_linear requires finite a and b")
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
        # Only columns k: are live; those left of k hold eliminated entries
        # that nothing reads again.
        upper = work[rows, lead, k:]
        work[rows, lead, k:] = work[:, k, k:]
        work[:, k, k:] = upper
        diagonal = work[:, k, k]
        np.abs(diagonal, out=pivots[k])
        np.copyto(diagonal, 1.0, where=pivots[k] <= threshold)
        # Multipliers as a column times the pivot row: their outer product.
        work[:, k + 1 :, k + 1 :] -= (
            work[:, k + 1 :, k : k + 1] / work[:, k : k + 1, k : k + 1] * work[:, k : k + 1, k + 1 :]
        )

    small = pivots <= threshold
    pivot_failed = small.any(axis=0)
    # A system whose pivot failed raises below whatever its solution is; a
    # zero right-hand side keeps that solution zero, so substituting back
    # through its carried-on pivots of 1.0 cannot overflow.
    work[pivot_failed, :, n] = 0.0

    # x as (m, n, 1) columns: each row dot below is a (1, r) @ (r, 1) matmul.
    x = np.zeros((m, n, 1), dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        dot = work[:, k : k + 1, k + 1 : n] @ x[:, k + 1 :]
        x[:, k, 0] = (work[:, k, n] - dot[:, 0, 0]) / work[:, k, k]

    residual = np.max(np.abs(a0 @ x - rhs0[:, :, np.newaxis]), axis=(1, 2), initial=0.0)
    bound = _RESIDUAL_REL_TOL * (1.0 + norm_a * np.max(np.abs(x), axis=(1, 2), initial=0.0))
    failing = np.flatnonzero(pivot_failed | ~(residual < bound))
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
