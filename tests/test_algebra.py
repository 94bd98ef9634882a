"""Tests for the dense linear-algebra kernel against numpy references."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from diamondsim.algebra import (
    SingularMatrixError,
    herm_eigen,
    matrix_inf_norm,
    solve_linear,
)
from diamondsim.atom import build_hamiltonian
from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.errors import SimulationError
from diamondsim.sweep import SweepSpec, run_sweep

#: np.linalg.eigh's result type, a named tuple (eigenvalues, eigenvectors).
EighResult = type(np.linalg.eigh(np.eye(2)))


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


def test_pauli_x_eigensystem():
    eig = herm_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
    # columns are actual eigenvectors
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(mat @ eig.eigenvectors, eig.eigenvectors * eig.eigenvalues, atol=1e-14)


def test_complex_hermitian_two_by_two():
    mat = np.array([[2.0, 1j], [-1j, 2.0]])
    eig = herm_eigen(mat)
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_diagonal_input_sorted():
    eig = herm_eigen(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 3.0])


def test_zero_matrix():
    eig = herm_eigen(np.zeros((4, 4)))
    assert np.allclose(eig.eigenvalues, 0.0)
    assert np.allclose(eig.eigenvectors, np.eye(4))


def test_random_hermitian_matches_numpy():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 6):
        for _ in range(20):
            mat = random_hermitian(rng, n)
            eig = herm_eigen(mat)
            assert np.all(np.diff(eig.eigenvalues) >= 0.0)
            assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(mat), atol=1e-10)


def test_degenerate_spectrum_recovered():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    mat = q @ np.diag([2.0, 2.0, 2.0, 7.0]) @ q.conj().T
    eig = herm_eigen(mat)
    assert np.allclose(eig.eigenvalues, [2.0, 2.0, 2.0, 7.0], atol=1e-10)


def test_eigen_deterministic_bit_for_bit():
    rng = np.random.default_rng(0)
    mat = random_hermitian(rng, 4)
    first = herm_eigen(mat)
    expected = first.eigenvalues.tobytes(), first.eigenvectors.tobytes()
    # A result shares no state with later calls: writing to it changes none.
    first.eigenvectors[...] = np.nan
    first.eigenvalues[...] = np.nan
    second = herm_eigen(mat)
    assert (second.eigenvalues.tobytes(), second.eigenvectors.tobytes()) == expected


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        herm_eigen(np.zeros((2, 3)))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_nan_and_empty_input():
    pair = np.eye(4, dtype=complex)
    pair[0, 1] = pair[1, 0] = np.nan
    inf_pair = np.eye(4, dtype=complex)
    inf_pair[0, 1] = inf_pair[1, 0] = np.inf
    diagonals = [np.diag([1.0, sign * np.inf, 1.0, 1.0]).astype(complex) for sign in (1, -1)]
    # Finite, but their inf-norms overflow: a row sum and a complex modulus.
    overflowing = [
        np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]]),
        np.array([[0.0, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.0]]),
    ]
    # Under the suite's warnings-as-errors, an inf - inf or an overflow that
    # warned would raise RuntimeWarning here instead.
    for bad in (pair, np.full((4, 4), np.nan), inf_pair, *diagonals, *overflowing):
        with pytest.raises(ValueError, match="requires a finite Hermitian matrix"):
            herm_eigen(bad)
    with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        herm_eigen(np.zeros((0, 0)))


def test_eigen_reports_a_lapack_failure_as_simulation_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    message = "eigendecomposition failed: Eigenvalues did not converge"
    with pytest.raises(SimulationError, match=message):
        herm_eigen(np.eye(2))


def test_eigen_result_type():
    eig = herm_eigen(np.eye(2))
    assert type(eig) is EighResult
    assert eig._fields == ("eigenvalues", "eigenvectors")


def test_solve_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (2, 4, 16):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_linear(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)
        assert np.max(np.abs(a @ x - b)) < 1e-9


def test_solve_deterministic():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal(8)
    assert np.array_equal(solve_linear(a, b), solve_linear(a, b))


def test_solve_singular_raises_with_pivot_index():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(a, np.array([1.0, 0.0]))
    assert str(info.value).startswith("matrix is numerically singular at pivot 1 ")
    assert isinstance(info.value, SimulationError)


def test_solve_shape_validation():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_linear(np.eye(3), np.zeros(4))


def systems_that_swap_rows(rng, m, n):
    """m random systems whose small diagonals make partial pivoting swap rows."""
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    a[:, np.arange(n), np.arange(n)] *= 1e-3
    b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return a, b


def test_stacked_solve_equals_one_system_solves_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (2, 5, 16):
        a, b = systems_that_swap_rows(rng, 40, n)
        x = solve_linear(a, b)
        assert x.shape == (40, n)
        for k in range(40):
            assert x[k].tobytes() == solve_linear(a[k], b[k]).tobytes()


def test_stacked_solve_raises_the_first_failure_of_its_one_pass_without_warnings():
    # Systems 1 and 3 fail; the zero system 3 fails at column 0, before the
    # rank-1 system 1 reaches its failing column 1.  The pass raises the
    # first column's failure, not what the lowest failing system raises alone.
    rng = np.random.default_rng(31)
    a, b = systems_that_swap_rows(rng, 5, 4)
    a[1] = [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    a[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failing pivots must not divide by zero
        with pytest.raises(SingularMatrixError) as stacked:
            solve_linear(a, b)
    assert str(stacked.value) == (
        "matrix is numerically singular at pivot 0 (|pivot| = 0.000e+00, threshold = 0.000e+00)"
    )
    assert stacked.value.index is None
    # Partial pivoting doubles the last column of Wilkinson's matrix at every
    # step: at n = 32 every pivot is 1 and the residual fails.  A singular
    # system after it fails a pivot, which the pass reaches before any
    # residual; without it, the residual failure is growth's own.
    n = 32
    growth = np.eye(n) - np.tril(np.ones((n, n)), -1)
    growth[:, -1] = 1.0
    singular = np.eye(n)
    singular[1] = singular[0]
    a = np.array([np.eye(n), growth, singular])
    b = np.tile(np.linspace(0.1, 1.0, n), (3, 1))
    with pytest.raises(SingularMatrixError) as alone:
        solve_linear(singular, b[2])
    assert str(alone.value).startswith("matrix is numerically singular at pivot 1 ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError) as stacked:
            solve_linear(a, b)
    assert (str(stacked.value), stacked.value.index) == (str(alone.value), None)
    with pytest.raises(SimulationError, match=r"^linear solve residual \S+ exceeds") as alone:
        solve_linear(growth, b[1])
    with pytest.raises(SimulationError) as stacked:
        solve_linear(a[:2], b[:2])
    assert (str(stacked.value), stacked.value.index) == (str(alone.value), None)


def test_stacked_solve_shape_validation():
    with pytest.raises(ValueError):
        solve_linear(np.zeros((3, 2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        solve_linear(np.zeros((3, 2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        solve_linear(np.zeros((3, 2, 3)), np.zeros((3, 2)))


def test_matrix_inf_norm():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert matrix_inf_norm(a) == np.linalg.norm(a, np.inf)
    assert matrix_inf_norm(np.zeros((0, 0))) == 0.0
    stack = np.array([a, 2.0 * a, np.zeros((2, 2))])
    assert matrix_inf_norm(stack).tolist() == [7.0, 14.0, 0.0]


def test_solve_rejects_non_finite_input_before_eliminating():
    nan_rhs = (np.eye(2), np.array([np.nan, 1.0]))
    inf_matrix = (np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2))
    nan_stack = (np.array([np.eye(2), np.full((2, 2), np.nan)]), np.ones((2, 2)))
    # Finite, but its first row sums past the double range; pytest makes the
    # overflow warning an error.
    overflow = (np.array([[1e308, 1e308], [0.0, 1.0]]), np.ones(2))
    overflow_stack = (np.array([np.eye(2), overflow[0]]), np.ones((2, 2)))
    for a, b in (nan_rhs, inf_matrix, nan_stack, overflow, overflow_stack):
        with pytest.raises(ValueError, match="solve_linear requires finite a and b"):
            solve_linear(a, b)


def test_solve_rejects_a_nan_residual():
    # x[0] = 1e300 / 1e-300 overflows to inf, and row 1's 0 * inf makes the
    # residual NaN, which a `residual >= bound` test would let through.
    a = np.array([[1e-300, 0.0], [0.0, 1e-300]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match=r"^linear solve residual nan exceeds bound"):
            solve_linear(a, np.array([1e300, 0.0]))


def eigen_contract_cases():
    """The inputs on which LAPACK's eigensystems are held to the contract.

    The 21-point steady states and the drive coupling of every preset, and
    50 seeded Hermitian matrices per size 2, 3, 4, 6 and 16 and inf-norm
    1e-300, 1, 1e150, 1e300 and 1e307.
    """
    for name in PRESET_NAMES:
        s = preset(name)[0]
        yield from run_sweep(SweepSpec(base=s, points=21)).states
        yield build_hamiltonian(replace(s, omega_c2=0.0))
    rng = np.random.default_rng(2026)
    for n in (2, 3, 4, 6, 16):
        for scale in (1e-300, 1.0, 1e150, 1e300, 1e307):
            for _ in range(50):
                mat = random_hermitian(rng, n)
                yield scale / matrix_inf_norm(mat) * mat


def eigen_contract_breaches(mat, values, vectors):
    """The bounds an eigensystem of mat breaks: "residual", "orthonormality".

    zheevd is backward stable, so on a working build A V - V Lambda stays
    within 1e-10 (1 + ||A||_inf) and V^H V within 1e-12 of the identity (the
    worst seen are about 1e-15 of each).  Written as `x < bound`, so a NaN
    breaks the bound too.
    """
    residual = np.max(np.abs(mat @ vectors - vectors * values))
    gram = np.max(np.abs(vectors.conj().T @ vectors - np.eye(len(mat))))
    breaches = []
    if not residual < 1e-10 * (1.0 + matrix_inf_norm(mat)):
        breaches.append("residual")
    if not gram < 1e-12:
        breaches.append("orthonormality")
    return breaches


def test_lapack_eigensystems_meet_the_contract():
    # herm_eigen returns LAPACK's answer unchecked; a broken build fails
    # here, not at run time.
    for mat in eigen_contract_cases():
        assert eigen_contract_breaches(mat, *herm_eigen(mat)) == [], mat


@pytest.mark.parametrize(
    "values,vectors,breaches",
    [
        ([0.0, 2.0], np.eye(2), ["residual"]),
        ([np.nan, 1.0], np.eye(2), ["residual"]),
        ([1.0, 1.0], 2.0 * np.eye(2), ["orthonormality"]),
        ([1.0, 1.0], [[1.0, np.nan], [0.0, 1.0]], ["residual", "orthonormality"]),
        ([0.0, 2.0], 2.0 * np.eye(2), ["residual", "orthonormality"]),
    ],
    ids=["residual", "nan-eigenvalue", "orthonormality", "nan-vector", "residual-and-orthonormality"],
)
def test_eigen_checks_lapacks_result(monkeypatch, values, vectors, breaches):
    # A broken LAPACK answer passes through herm_eigen as it is, and the
    # contract check above names each bound it breaks.
    result = EighResult(np.array(values), np.array(vectors, dtype=complex))
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: result)
    assert herm_eigen(np.eye(2)) is result
    assert eigen_contract_breaches(np.eye(2), *result) == breaches
