"""Tests for the dense linear-algebra kernel against numpy references."""

import warnings

import numpy as np
import pytest

from diamondsim.algebra import (
    EigenDecomposition,
    SingularMatrixError,
    herm_eigen,
    matrix_inf_norm,
    solve_linear,
)
from diamondsim.errors import SimulationError


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
            residual = mat @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
            assert np.max(np.abs(residual)) < 1e-9
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-11


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
    second = herm_eigen(mat)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        herm_eigen(np.zeros((2, 3)))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_nan_and_empty_input():
    pair = np.eye(4, dtype=complex)
    pair[0, 1] = pair[1, 0] = np.nan
    for bad in (pair, np.full((4, 4), np.nan)):
        with pytest.raises(ValueError, match="requires a finite Hermitian matrix"):
            herm_eigen(bad)
    with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
        herm_eigen(np.zeros((0, 0)))


def test_eigen_result_type():
    eig = herm_eigen(np.eye(2))
    assert isinstance(eig, EigenDecomposition)


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
    assert isinstance(info.value.pivot_index, int)
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


def test_stacked_solve_reports_the_lowest_failing_system_without_warnings():
    rng = np.random.default_rng(31)
    a, b = systems_that_swap_rows(rng, 5, 4)
    a[1] = [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    a[3] = 0.0
    with pytest.raises(SingularMatrixError) as alone:
        solve_linear(a[1], b[1])
    assert alone.value.index is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failing pivots must not divide by zero
        with pytest.raises(SingularMatrixError) as stacked:
            solve_linear(a, b)
    assert str(stacked.value) == str(alone.value)
    assert (stacked.value.index, stacked.value.pivot_index) == (1, alone.value.pivot_index)


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
