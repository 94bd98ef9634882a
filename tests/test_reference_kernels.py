"""The fast per-point kernels against the numpy references in reference_kernels.

Stated tolerances:
- build_liouvillian: bit-identical to the np.kron assembly (tolerance 0);
- solve_linear on one system: bit-identical to the elimination that keeps
  the right-hand side apart;
- run_sweep: the same states, bit for bit, as a per-point loop whose
  generator, linear solve and positivity eigensolve all come from the
  references, for every preset under each of the five closure targets;
- herm_eigen: eigenvalues and eigenvectors bit-identical to the scalar
  Jacobi without a rotation plan (tolerance 0), on the Hermitian cases below
  and on 500 drive matrices with a fifth of their Rabi frequencies zero,
  whose eigenvectors tie in magnitude and so expose the phase pin;
- herm_eigen: eigenvalues within 1e-13 * (1 + ||A||_inf) of the numpy-slice
  Jacobi, and the eigenvector residual inside herm_eigen's own bound,
  1e-10 * (1 + ||A||_inf).  The two differ in the last bits only because
  numpy may fuse the multiply and add of a complex product and Python's
  scalar product does not;
- herm_eigen: on 2010 drive matrices with a fifth of their Rabi frequencies
  zero, every eigenvector column of a non-degenerate eigenvalue within 1e-8
  of the numpy-slice Jacobi's, so that no last-bit difference between the
  two flips a column's sign through the phase pin.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import reference_kernels as ref
from diamondsim.algebra import herm_eigen, matrix_inf_norm, solve_linear
from diamondsim.atom import CLOSURE_TARGETS, Scenario, build_hamiltonian, closure_complete
from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.lindblad import build_liouvillian
from diamondsim.sweep import SweepSpec, run_sweep


def random_scenarios(rng, count):
    for _ in range(count):
        omegas = rng.uniform(0.0, 20.0, 4)
        deltas = rng.uniform(-10.0, 10.0, 4)
        gammas = rng.uniform(0.0, 3.0, 4)
        yield Scenario(*omegas, *deltas, *gammas, closure_target="c2")


def test_liouvillian_is_bit_identical_to_the_kron_reference():
    scenarios = [
        closure_complete(replace(preset(name)[0], delta_c2=float(delta)))
        for name in PRESET_NAMES
        for delta in np.linspace(-25.0, 25.0, 51)
    ]
    scenarios += [closure_complete(s) for s in random_scenarios(np.random.default_rng(5), 200)]
    for s in scenarios:
        assert build_liouvillian(s).tobytes() == ref.build_liouvillian(s).tobytes(), s


def test_one_system_solve_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(37)
    for n in (2, 5, 16):
        for _ in range(50):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a[np.arange(n), np.arange(n)] *= 1e-3  # partial pivoting must swap rows
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert solve_linear(a, b).tobytes() == ref.solve_linear(a, b).tobytes()


@functools.cache
def sweep_matches_the_references(base: Scenario) -> tuple[bool, bool]:
    """Whether run_sweep's grid and states equal the references', bit for bit.

    Cached per base Scenario: fig4, fig5, fig7 and fig8 are one parameter set.
    """
    # 67 points: one full block of stacked solves and one partial block.
    fast = run_sweep(SweepSpec(base=base, points=67))
    return (
        fast.delta.tobytes() == np.linspace(-25.0, 25.0, 67).tobytes(),
        fast.states.tobytes() == ref.sweep_states(base, fast.delta).tobytes(),
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sweep_states_are_bit_identical_to_the_reference_kernels(name):
    for target in CLOSURE_TARGETS:
        base = replace(preset(name)[0], closure_target=target)
        assert sweep_matches_the_references(base) == (True, True), target


def hermitian_cases(rng):
    for n in (2, 3, 4):
        for _ in range(300):
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            yield 0.5 * (raw + raw.conj().T)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        yield q @ np.diag([2.0] * (n - 1) + [7.0]) @ q.conj().T
        yield np.diag(rng.standard_normal(n)).astype(np.complex128)
        yield np.zeros((n, n), dtype=np.complex128)
    for name in ("fig5", "fig9-left", "fig10-right"):
        for rho in run_sweep(SweepSpec(base=preset(name)[0], points=21)).states:
            yield rho


def test_herm_eigen_agrees_with_the_numpy_slice_jacobi():
    for a in hermitian_cases(np.random.default_rng(17)):
        scale = matrix_inf_norm(a)
        fast = herm_eigen(a)
        slow = ref.herm_eigen(a)
        gap = np.max(np.abs(fast.eigenvalues - slow.eigenvalues))
        assert gap <= 1e-13 * (1.0 + scale)
        residual = np.max(np.abs(a @ fast.eigenvectors - fast.eigenvectors * fast.eigenvalues))
        assert residual < 1e-10 * (1.0 + scale)


def drive_matrices(rng, count):
    # Drive-only couplings as dressed_spectrum builds them; a zero Rabi
    # frequency gives eigenvectors (|x> +- |y>)/sqrt(2), whose two largest
    # components tie in magnitude.
    for _ in range(count):
        omegas = rng.uniform(0.0, 20.0, 3)
        omegas[rng.random(3) < 0.2] = 0.0
        s = Scenario(omega_a1=omegas[0], omega_c1=omegas[1], omega_a2=omegas[2], omega_c2=1.0)
        yield build_hamiltonian(replace(s, omega_c2=0.0))


def test_herm_eigen_is_bit_identical_to_the_scalar_jacobi():
    rng = np.random.default_rng(17)
    for a in [*hermitian_cases(rng), *drive_matrices(rng, 500)]:
        fast = herm_eigen(a)
        slow = ref.scalar_herm_eigen(a)
        assert fast.eigenvalues.tobytes() == slow.eigenvalues.tobytes(), a
        assert fast.eigenvectors.tobytes() == slow.eigenvectors.tobytes(), a


def test_herm_eigen_sign_does_not_hang_on_the_last_bit():
    # Components that tie in magnitude come out of the two Jacobi versions a
    # bit apart; the phase pin must pick the same one in both.  Degenerate
    # columns are left out: any unitary mix of them is an eigenbasis too.
    flips = columns = 0
    for a in drive_matrices(np.random.default_rng(2010), 2010):
        fast = herm_eigen(a)
        slow = ref.herm_eigen(a)
        values = fast.eigenvalues
        split = np.diff(values) >= 1e-12 * (1.0 + np.max(np.abs(values)))
        for k in np.flatnonzero(np.r_[True, split] & np.r_[split, True]):
            columns += 1
            flips += np.max(np.abs(fast.eigenvectors[:, k] - slow.eigenvectors[:, k])) > 1e-8
    assert (flips, columns) == (0, 6576)
