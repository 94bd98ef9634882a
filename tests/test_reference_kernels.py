"""The fast per-point kernels against the numpy references in reference_kernels.

Stated tolerances:
- build_liouvillian: bit-identical to the np.kron assembly (tolerance 0),
  also through more rate sets than its cache holds and for rate sets that
  differ only in the sign of a zero;
- solve_linear on one system and on stacks: each system bit-identical to
  the elimination that keeps the right-hand side apart, in stacks where
  every, some or no system swaps rows;
- run_sweep: the same states, bit for bit, as a per-point loop whose
  generator and linear solve come from the references, with the
  references' Jacobi as the positivity gate, for every preset under each of
  the five closure targets;
- herm_eigen: eigenvalues within 1e-13 * (1 + ||A||_inf) of the numpy-slice
  Jacobi, and the eigenvector residual inside the eigensolver contract's
  bound, 1e-10 * (1 + ||A||_inf), on the Hermitian cases below and on 500 drive
  matrices with a fifth of their Rabi frequencies zero;
- herm_eigen: np.linalg.eigh's eigenvalues and eigenvectors bit for bit,
  on the same matrices;
- dressed_spectrum: on 2010 such drives, every eigenvector column of a
  non-degenerate eigenvalue within 1e-8 of the Jacobi's, so that no
  last-bit difference between the two flips a column's sign through the
  phase pin;
- dressed_spectrum on every preset: the same degenerate groups as the
  Jacobi's eigenvalues give, and each group's projector within
  1e-12 * (1 + max|eigenvalue|) of the Jacobi's; inside a degenerate group
  the two return different bases of one eigenspace;
- the positivity gate: the lowest eigenvalue of a unit-trace state within
  FLOOR_DELTA = 1e-14 of the Jacobi's, so check_density_matrix accepts or
  rejects a state exactly as the Jacobi's lowest eigenvalue does whenever
  that eigenvalue is more than FLOOR_DELTA from the -1e-8 floor, near the
  floor and on every steady state of the ten preset sweeps.
"""

import functools
from dataclasses import fields, replace

import numpy as np
import pytest

import reference_kernels as ref
from diamondsim import lindblad, sweep
from diamondsim.algebra import herm_eigen, matrix_inf_norm, solve_linear
from diamondsim.atom import CLOSURE_TARGETS, Scenario, build_hamiltonian, closure_complete
from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.dressed import dressed_spectrum
from diamondsim.lindblad import InvariantError, build_liouvillian, check_density_matrix
from diamondsim.sweep import SweepSpec, run_sweep


def random_scenarios(rng, count):
    for _ in range(count):
        omegas = rng.uniform(0.0, 20.0, 4)
        deltas = rng.uniform(-10.0, 10.0, 4)
        gammas = rng.uniform(0.0, 3.0, 4)
        yield Scenario(*omegas, *deltas, *gammas, closure_target="c2")


def extreme_scenarios(rng, count):
    """Seeded scenarios at signed zeros, tiny and huge magnitudes.

    Rabi frequencies and rates are drawn from -0.0, 0.0, 1e-300, 2.5 and
    1e20, detunings from those with either sign; each is completed under
    targets a1, a2, c1 and c2.  Every fourth scenario has all four rates
    -0.0: only then does the dissipative part hold negative zeros, which
    leave the commutator's signed zeros in L.
    """
    magnitudes = np.array([-0.0, 0.0, 1e-300, 2.5, 1e20])
    signed = np.concatenate([magnitudes, -magnitudes[2:]])
    for target in CLOSURE_TARGETS[:4]:
        for k in range(count):
            omegas, gammas = rng.choice(magnitudes, (2, 4)).tolist()
            if k % 4 == 0:
                gammas = [-0.0] * 4
            deltas = rng.choice(signed, 4).tolist()
            yield closure_complete(Scenario(*omegas, *deltas, *gammas, closure_target=target))


def test_liouvillian_is_bit_identical_to_the_kron_reference():
    scenarios = [
        closure_complete(replace(preset(name)[0], delta_c2=float(delta)))
        for name in PRESET_NAMES
        for delta in np.linspace(-25.0, 25.0, 51)
    ]
    # The signs of zero entries of L: B's zeros and signed zeros times the
    # Kronecker deltas' zeros, under rate sets with -0.0 among them.
    scenarios += extreme_scenarios(np.random.default_rng(17), 250)
    # 200 distinct rate sets, more than the cache of dissipative parts holds,
    # run twice: the second run rebuilds the sums the first evicted.
    randoms = [closure_complete(s) for s in random_scenarios(np.random.default_rng(5), 200)]
    rate_sets = {(s.gamma1, s.gamma2, s.gamma3, s.gamma4) for s in randoms}
    assert len(rate_sets) > lindblad._dissipative_part.cache_info().maxsize
    scenarios += randoms + randoms
    for s in scenarios:
        assert build_liouvillian(s).tobytes() == ref.build_liouvillian(s).tobytes(), s

    # Rate sets that differ only in the sign of a zero give different bits,
    # whichever of them is built first.
    plus, minus = (
        Scenario(delta_a1=-0.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=zero)
        for zero in (0.0, -0.0)
    )
    assert ref.build_liouvillian(plus).tobytes() != ref.build_liouvillian(minus).tobytes()
    for order in ((plus, minus), (minus, plus)):
        lindblad._dissipative_part.cache_clear()
        for s in order:
            assert build_liouvillian(s).tobytes() == ref.build_liouvillian(s).tobytes(), s

    # Each L is the caller's own: writing to it leaves the next build alone.
    s = scenarios[0]
    liouv = build_liouvillian(s)
    assert liouv.flags.writeable
    liouv[...] = np.nan
    assert build_liouvillian(s).tobytes() == ref.build_liouvillian(s).tobytes()


def test_one_system_solve_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(37)
    for n in (2, 5, 16):
        for _ in range(50):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a[np.arange(n), np.arange(n)] *= 1e-3  # partial pivoting must swap rows
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert solve_linear(a, b).tobytes() == ref.solve_linear(a, b).tobytes()


def test_stacked_solve_is_bit_identical_to_the_reference():
    # A strictly column diagonally dominant matrix stays so through
    # elimination, so partial pivoting never swaps one of its rows; small
    # diagonals make the others swap.  The stacked elimination swaps rows
    # only at columns where some system's pivot moves.
    rng = np.random.default_rng(41)
    for n in (2, 5, 16):
        m = 24
        diag = np.arange(n)
        a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        b = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        swapping = a.copy()
        swapping[:, diag, diag] *= 1e-3
        dominant = a.copy()
        dominant[:, diag, diag] = np.abs(a).sum(axis=1) * np.exp(1j * rng.uniform(0, 6.3, (m, n)))
        off_diagonal = np.abs(dominant).sum(axis=1) - np.abs(dominant[:, diag, diag])
        assert (np.abs(dominant[:, diag, diag]) > off_diagonal).all()
        mixed = np.where((np.arange(m) % 3 == 0)[:, None, None], swapping, dominant)
        for stack in (mixed, dominant, swapping):
            x = solve_linear(stack, b)
            for k in range(m):
                assert x[k].tobytes() == ref.solve_linear(stack[k], b[k]).tobytes(), (n, k)


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


def detuned_bases():
    """Seeded bases with non-zero detunings of both signs and one -0.0.

    Each leaves a different field inactive, so that target "none" runs too.
    """
    rng = np.random.default_rng(16)
    signs = ((1, -1, 1), (-1, 1, -1), (1, 1, -1), (-1, -1, 1))
    for inactive, sign in enumerate(signs):
        omegas = rng.uniform(0.5, 5.0, 4)
        omegas[inactive] = 0.0
        deltas = rng.uniform(1.0, 10.0, 3) * sign
        gammas = rng.uniform(0.5, 2.0, 4)
        yield Scenario(*omegas.tolist(), *deltas.tolist(), 0.0, *gammas.tolist())
    yield Scenario(1.5, 0.0, 2.5, 1.0, -3.5, 4.0, -0.0, 0.0, 1.0, 0.5, 1.5, 2.0)


def scenario_bits(s: Scenario) -> bytes:
    """A Scenario's numbers as bytes, so that -0.0 and 0.0 differ."""
    numbers = [getattr(s, f.name) for f in fields(Scenario) if f.name != "closure_target"]
    return np.array(numbers).tobytes() + s.closure_target.encode()


@pytest.mark.parametrize("base", list(detuned_bases()))
@pytest.mark.parametrize("target", CLOSURE_TARGETS)
def test_sweep_off_zero_detunings_is_bit_identical_to_point_by_point_completion(
    monkeypatch, base, target
):
    # Every term of each target's formula is non-zero here, unlike on the
    # presets, whose fixed detunings are all zero.
    base = replace(base, closure_target=target)
    built = []

    def build(scenario):
        built.append(scenario_bits(scenario))
        return build_liouvillian(scenario)

    monkeypatch.setattr(sweep, "build_liouvillian", build)
    fast = run_sweep(SweepSpec(base=base, delta_min=-12.0, delta_max=12.0, points=67))
    grid = fast.delta.tolist()
    assert built == [scenario_bits(closure_complete(replace(base, delta_c2=d))) for d in grid]
    assert fast.states.tobytes() == ref.sweep_states(base, fast.delta).tobytes()


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
    rng = np.random.default_rng(17)
    cases = [*hermitian_cases(rng), *drive_matrices(rng, 500)]
    # The Jacobi runs once per matrix size, on the stack of that size.
    for n in {len(a) for a in cases}:
        stack = np.array([a for a in cases if len(a) == n])
        for a, slow in zip(stack, ref.herm_eigen(stack).eigenvalues):
            scale = matrix_inf_norm(a)
            fast = herm_eigen(a)
            assert np.max(np.abs(fast.eigenvalues - slow)) <= 1e-13 * (1.0 + scale)
            residual = np.max(np.abs(a @ fast.eigenvectors - fast.eigenvectors * fast.eigenvalues))
            assert residual < 1e-10 * (1.0 + scale)


def drive_scenarios(rng, count):
    # Drive-only couplings as dressed_spectrum builds them; a zero Rabi
    # frequency gives eigenvectors (|x> +- |y>)/sqrt(2), whose two largest
    # components tie in magnitude.
    for _ in range(count):
        omegas = rng.uniform(0.0, 20.0, 3)
        omegas[rng.random(3) < 0.2] = 0.0
        yield Scenario(omega_a1=omegas[0], omega_c1=omegas[1], omega_a2=omegas[2], omega_c2=1.0)


def drive_matrices(rng, count):
    for s in drive_scenarios(rng, count):
        yield build_hamiltonian(replace(s, omega_c2=0.0))


def test_herm_eigen_returns_lapacks_eigensystem_bit_for_bit():
    rng = np.random.default_rng(17)
    for a in [*hermitian_cases(rng), *drive_matrices(rng, 500)]:
        eig = herm_eigen(a)
        values, vectors = np.linalg.eigh(np.asarray(a, dtype=np.complex128))
        assert eig.eigenvalues.tobytes() == values.tobytes()
        assert eig.eigenvectors.tobytes() == vectors.tobytes()


def test_dressed_sign_does_not_hang_on_the_last_bit():
    # Components that tie in magnitude come out of LAPACK and the Jacobi a
    # bit apart; the phase pin must pick the same one in both.  Degenerate
    # columns are left out: any unitary mix of them is an eigenbasis too.
    scenarios = list(drive_scenarios(np.random.default_rng(2010), 2010))
    drives = np.array([build_hamiltonian(replace(s, omega_c2=0.0)) for s in scenarios])
    flips = columns = 0
    for s, slow_vectors in zip(scenarios, ref.herm_eigen(drives).eigenvectors):
        fast = dressed_spectrum(s)
        for group in fast.groups:
            if len(group) == 1:
                columns += 1
                k = group[0]
                flips += np.max(np.abs(fast.eigenvectors[:, k] - slow_vectors[:, k])) > 1e-8
    assert (flips, columns) == (0, 6576)


def degenerate_groups(values):
    """Index groups of ascending values closer than 1e-12 * (1 + max|value|)."""
    tol = 1e-12 * (1.0 + np.max(np.abs(values)))
    groups = [[0]]
    for k in range(1, len(values)):
        if values[k] - values[k - 1] < tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(group) for group in groups)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_dressed_groups_and_projectors_match_the_jacobi(name):
    s = preset(name)[0]
    fast = dressed_spectrum(s)
    slow = ref.herm_eigen(build_hamiltonian(replace(s, omega_c2=0.0)))
    assert fast.groups == degenerate_groups(slow.eigenvalues)
    tol = 1e-12 * (1.0 + np.max(np.abs(slow.eigenvalues)))
    for group in fast.groups:
        columns = list(group)
        projectors = [v[:, columns] @ v[:, columns].conj().T
                      for v in (fast.eigenvectors, slow.eigenvectors)]
        assert np.max(np.abs(projectors[0] - projectors[1])) <= tol, group


# herm_eigen's lowest eigenvalue of a unit-trace 4x4 state is within this
# of the Jacobi's; the largest gap seen on the preset sweeps is about 4e-16.
FLOOR_DELTA = 1e-14


def accepts(rho):
    try:
        check_density_matrix(rho)
    except InvariantError as exc:
        assert "minimum eigenvalue" in str(exc)
        return False
    return True


def test_positivity_gate_agrees_with_the_jacobi_near_the_floor():
    # States U diag(lambda) U^H with lambda_min = -1e-8 +- delta: those
    # within FLOOR_DELTA of the floor may go either way, all others must be
    # decided as the Jacobi's lowest eigenvalue decides them.
    rng = np.random.default_rng(1408)
    deltas = np.repeat([0.0, 1e-16, 1e-15, 2e-14, 1e-13, 1e-11, 1e-9], 2 * 40)
    states = []
    for offset in deltas * np.tile([-1.0, 1.0], len(deltas) // 2):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(raw)
        lowest = -1e-8 + offset
        spectrum = [lowest, *rng.dirichlet(np.ones(3)) * (1.0 - lowest)]
        states.append(u @ np.diag(spectrum) @ u.conj().T)
    states = np.array(states)
    symmetric = 0.5 * (states + states.conj().transpose(0, 2, 1))
    slow = ref.herm_eigen(symmetric).eigenvalues[:, 0]
    fast = np.array([herm_eigen(rho).eigenvalues[0] for rho in symmetric])
    assert np.max(np.abs(fast - slow)) <= FLOOR_DELTA
    decided = np.abs(slow + 1e-8) > FLOOR_DELTA
    verdicts = [accepts(rho) for rho in states[decided]]
    assert verdicts == list(slow[decided] >= -1e-8)
    # Every state at least 2e-14 from the floor was decided, both ways.
    assert decided[deltas >= 2e-14].all()
    assert set(verdicts) == {True, False}


def test_positivity_gate_agrees_with_the_jacobi_on_every_preset_sweep(sweeps):
    # fig4, fig5, fig7 and fig8 share one sweep result; each is checked once.
    for result in {id(result): result for result in sweeps.values()}.values():
        fast = np.array([herm_eigen(rho).eigenvalues[0] for rho in result.states])
        slow = ref.herm_eigen(result.states).eigenvalues[:, 0]
        assert np.max(np.abs(fast - slow)) <= FLOOR_DELTA
        assert np.array_equal(fast >= -1e-8, slow >= -1e-8)
