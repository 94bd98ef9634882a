"""Minimal dense complex-matrix kernel.

Hermitian eigendecomposition and linear solves for the small matrices this
package works with (4x4 coupling matrices, 16x16 generators).  At these
sizes the cost is per-call overhead, not the O(n^3) arithmetic.

herm_eigen runs LAPACK's zheevd through np.linalg.eigh, from the OpenBLAS
that numpy ships; a hand-written Jacobi on Python scalars cost about twice
as much per call.  It checks its input (both inf-norms from one
matrix_inf_norm of the stack [A, A - A^H]) and trusts LAPACK's answer:
zheevd is backward stable, and the suite's contract test pins its residual
and orthonormality bounds.  Its eigenvalues only gate outputs (the
positivity floor of every steady state and trajectory sample) or feed the
dressed census, whose degenerate groups do not depend on the basis chosen
inside them, so no sweep, steady or evolve output byte depends on its last
bits.  solve_linear stays hand-written: its solutions are the sweep's
output bit for bit, it stops at the first pivot under its threshold, before
dividing by it, and it eliminates a whole stack of systems in one pass,
swapping rows only at columns where some system's pivot moves.

At these sizes both are bit-reproducible across runs and BLAS thread
counts on one machine and numpy build.  Across machines or builds the last
bits may differ (numpy may fuse the multiply and add of a complex product,
and OpenBLAS picks its kernels per CPU), and so may the eigenvector basis
inside a group of equal eigenvalues.
"""

from __future__ import annotations

import math

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


class SingularMatrixError(SimulationError):
    """Linear system is numerically singular; the message names the failing pivot."""


def matrix_inf_norm(a: np.ndarray):
    """Induced infinity norm (maximum absolute row sum); an array of them for a stack.

    One matrix gives a numpy float64.  A NaN entry gives NaN; an inf entry or
    a row sum past the double range gives inf, with no overflow warning.
    """
    with np.errstate(over="ignore"):
        return np.maximum.reduce(np.add.reduce(np.abs(a), axis=-1), axis=-1, initial=0.0)


def herm_eigen(a):
    """Eigendecomposition of a Hermitian matrix by LAPACK's zheevd.

    Returns np.linalg.eigh's own EighResult (eigenvalues, eigenvectors):
    eigenvalues ascending, eigenvector column k paired with eigenvalue k,
    and each column's phase as LAPACK leaves it.  Inside a group of equal
    eigenvalues the columns are an arbitrary orthonormal basis of the
    eigenspace.

    Raises ValueError for empty, non-square or non-Hermitian input and for
    input that is not finite or whose inf-norm overflows, and SimulationError
    if LAPACK fails.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"herm_eigen requires a non-empty square matrix, got shape {mat.shape}")
    # ||A||_inf and ||A - A^H||_inf from one stack.  An inf or NaN entry, or
    # a row sum past the double range, leaves the scale inf or NaN (and an
    # inf entry's defect inf - inf), so the bound fails its `< inf`.
    pair = np.empty((2, *mat.shape), dtype=np.complex128)
    pair[0] = mat
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(mat, mat.conj().T, out=pair[1])
    scale, defect = matrix_inf_norm(pair).tolist()
    if not defect < _HERMITICITY_REL_TOL * (1.0 + scale) < np.inf:
        raise ValueError("herm_eigen requires a finite Hermitian matrix")
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"eigendecomposition failed: {exc}") from exc


def solve_linear(a, b) -> np.ndarray:
    """Solve the dense complex system a @ x = b, or a stack of such systems.

    a is (n, n) with b of shape (n,), or a stack (m, n, n) with b of shape
    (m, n); x has the shape of b.  Gaussian elimination with partial
    pivoting runs once over the stack (one system is a stack of one), on the
    augmented [a | b].  A NaN or inf entry of a or b, or an inf-norm of a
    past the double range, raises ValueError first.  A pivot whose magnitude
    falls below 1e-14 * ||a||_inf raises SingularMatrixError naming the
    pivot's column, before it divides anything; the solution is verified
    against ||a x - b||_inf < 1e-10 * (1 + ||a||_inf * ||x||_inf), which a
    NaN residual fails.  The pass raises its first failure: the first column
    where some system's pivot fails (with the lowest such system's figures),
    else the lowest system whose residual fails; index stays None.  No
    system's arithmetic depends on the rest of the stack, so a stacked solve
    equals one-system solves bit for bit.
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
    shape = rhs0.shape
    m, n = math.prod(shape[:-1]), shape[-1]
    a0, rhs0 = a0.reshape(m, n, n), rhs0.reshape(m, n)
    norm_a = matrix_inf_norm(a0)
    if not ((norm_a < np.inf).all() and np.isfinite(rhs0).all()):
        raise ValueError("solve_linear requires finite a and b")
    threshold = _PIVOT_REL_TOL * norm_a
    # Eliminate on [a | b]: the right-hand side rides along as column n.
    # Column k's outer product, (m, n - k - 1, n - k), fills a prefix of the
    # products buffer, allocated with work: a fresh temporary per column cost
    # more time, and a second allocation more peak memory.
    size = m * n * (n + 1)
    scratch = np.empty(size + m * (n - 1) * n, dtype=np.complex128)
    work, products = scratch[:size].reshape(m, n, n + 1), scratch[size:]
    work[:, :, :n] = a0
    work[:, :, n] = rhs0
    rows = np.arange(m)
    for k in range(n):
        lead = k + np.abs(work[:, k:, k]).argmax(axis=1)
        # Swap rows k and lead of every system, unless no system's pivot
        # moved (a swap where lead == k is a no-op).  Only columns k: are
        # live; those left of k hold eliminated entries nothing reads again.
        if (lead != k).any():
            upper = work[rows, lead, k:]
            work[rows, lead, k:] = work[:, k, k:]
            work[:, k, k:] = upper
        pivot = np.abs(work[:, k, k])
        if (singular := pivot <= threshold).any():
            j = singular.argmax()
            raise SingularMatrixError(
                f"matrix is numerically singular at pivot {k} "
                f"(|pivot| = {pivot[j]:.3e}, threshold = {threshold[j]:.3e})"
            )
        # Multipliers as a column times the pivot row: their outer product.
        r = n - k - 1
        product = products[: m * r * (r + 1)].reshape(m, r, r + 1)
        multipliers = work[:, k + 1 :, k : k + 1] / work[:, k : k + 1, k : k + 1]
        np.multiply(multipliers, work[:, k : k + 1, k + 1 :], out=product)
        work[:, k + 1 :, k + 1 :] -= product

    # x as (m, n, 1) columns: each row dot below is a (1, r) @ (r, 1) matmul.
    x = np.zeros((m, n, 1), dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        dot = work[:, k : k + 1, k + 1 : n] @ x[:, k + 1 :]
        x[:, k, 0] = (work[:, k, n] - dot[:, 0, 0]) / work[:, k, k]

    residual = np.max(np.abs(a0 @ x - rhs0[:, :, np.newaxis]), axis=(1, 2), initial=0.0)
    bound = _RESIDUAL_REL_TOL * (1.0 + norm_a * np.max(np.abs(x), axis=(1, 2), initial=0.0))
    if not (solved := residual < bound).all():
        j = solved.argmin()
        raise SimulationError(
            f"linear solve residual {residual[j]:.3e} exceeds bound {bound[j]:.3e}; "
            "system is ill-conditioned"
        )
    return x.reshape(shape)
