"""Tests for the generator assembly, steady states, and the integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from diamondsim import lindblad
from diamondsim.atom import Scenario
from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.lindblad import (
    InvariantError,
    StabilityError,
    SteadyStateError,
    build_liouvillian,
    check_density_matrix,
    evolve,
    evolve_trajectory,
    ground_state,
    steady_state,
    unvec,
    vec,
)
from eom import eom_rhs


def random_density_matrix(rng):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_hermitian_unit_trace(rng):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (raw + raw.conj().T)
    return h - np.eye(4) * (np.trace(h).real - 1.0) / 4.0


def test_vec_convention_row_major():
    rho = np.arange(16.0).reshape(4, 4)
    v = vec(rho)
    for i in range(4):
        for j in range(4):
            assert v[4 * i + j] == rho[i, j]
    assert np.array_equal(unvec(v), rho)


def test_ground_state_is_pure_b():
    rho = ground_state()
    assert rho[1, 1] == 1.0
    assert np.trace(rho) == 1.0
    assert np.count_nonzero(rho) == 1


def test_check_density_matrix_accepts_valid():
    rng = np.random.default_rng(2)
    for _ in range(10):
        check_density_matrix(random_density_matrix(rng))


def test_check_density_matrix_rejections():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3))
    with pytest.raises(InvariantError):
        check_density_matrix(np.eye(4))  # trace 4
    bad = ground_state()
    bad[0, 1] = 1e-6  # not Hermitian
    with pytest.raises(InvariantError):
        check_density_matrix(bad)
    with pytest.raises(InvariantError):
        check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_stacked_check_names_the_lowest_failing_matrix():
    rng = np.random.default_rng(5)
    good = [random_density_matrix(rng) for _ in range(3)]
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    stack = np.array([good[0], good[1], negative, good[2], 2.0 * good[0]])
    labels = [f"matrix {k}" for k in range(5)]
    check_density_matrix(np.array(good))
    with pytest.raises(InvariantError) as alone:
        check_density_matrix(negative, context="matrix 2")
    with pytest.raises(InvariantError) as stacked:
        check_density_matrix(stack, context=labels)
    assert (str(stacked.value), stacked.value.index) == (str(alone.value), 2)
    stack[1] = 2.0 * good[1]  # a trace error before the negative eigenvalue
    with pytest.raises(InvariantError, match=r"^matrix 1: \|trace - 1\|") as stacked:
        check_density_matrix(stack, context=labels)
    assert stacked.value.index == 1
    with pytest.raises(ValueError):
        check_density_matrix(np.zeros((2, 3, 3)))


def nan_pair_state():
    rho = ground_state()
    rho[0, 1] = rho[1, 0] = np.nan
    return rho


def test_check_density_matrix_fails_closed_on_nan():
    # NaN compares false against every tolerance, so each check is written
    # to fail unless the defect is below it.
    for rho in (nan_pair_state(), np.full((4, 4), np.nan, dtype=complex)):
        with pytest.raises(InvariantError, match=r"^density matrix: Hermiticity defect nan"):
            check_density_matrix(rho)
    stack = np.array([ground_state(), ground_state(), nan_pair_state(), ground_state()])
    with pytest.raises(InvariantError, match="Hermiticity defect nan") as info:
        check_density_matrix(stack)
    assert info.value.index == 2


def test_random_check_stacks_raise_what_their_first_failing_matrix_raises_alone():
    rng = np.random.default_rng(808)
    not_hermitian = ground_state()
    not_hermitian[0, 1] = 1e-6
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    failing = [not_hermitian, 2.0 * ground_state(), negative, nan_pair_state()]
    raised = 0
    for _ in range(50):
        size = int(rng.integers(2, 10))
        stack = np.array([random_density_matrix(rng) for _ in range(size)])
        # A negative kind puts a failing matrix in the slot: a quarter of them.
        kinds = rng.integers(-len(failing), 3 * len(failing), size)
        for k in np.flatnonzero(kinds < 0):
            stack[k] = failing[kinds[k]]
        labels = [f"matrix {k}" for k in range(size)]
        first = next((k for k in range(size) if kinds[k] < 0), None)
        if first is None:
            check_density_matrix(stack, context=labels)
            continue
        with pytest.raises(InvariantError) as alone:
            check_density_matrix(stack[first], context=labels[first])
        with pytest.raises(InvariantError) as stacked:
            check_density_matrix(stack, context=labels)
        assert (str(stacked.value), stacked.value.index) == (str(alone.value), first)
        raised += 1
    assert raised >= 25


def test_liouvillian_shape_and_trace_preservation():
    s = Scenario(omega_a1=1.0, omega_a2=2.0, omega_c1=3.0, omega_c2=4.0, delta_a1=0.5)
    liouv = build_liouvillian(s)
    assert liouv.shape == (16, 16)
    population_rows = liouv[0] + liouv[5] + liouv[10] + liouv[15]
    assert np.max(np.abs(population_rows)) < 1e-13


def test_generator_routes_agree():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = Scenario(
            omega_a1=rng.uniform(0, 10),
            omega_a2=rng.uniform(0, 10),
            omega_c1=rng.uniform(0, 10),
            omega_c2=rng.uniform(0, 10),
            delta_a1=rng.uniform(-5, 5),
            delta_a2=rng.uniform(-5, 5),
            delta_c1=rng.uniform(-5, 5),
            gamma1=rng.uniform(0.1, 2),
            gamma2=rng.uniform(0.1, 2),
            gamma3=rng.uniform(0.1, 2),
            gamma4=rng.uniform(0.1, 2),
        )
        liouv = build_liouvillian(s)
        rho = random_hermitian_unit_trace(rng)
        gap = np.abs(liouv @ vec(rho) - vec(eom_rhs(s, rho)))
        assert np.max(gap) < 1e-12


def test_rhs_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(23)
    s = Scenario(omega_a1=2.0, omega_c1=1.0, omega_c2=0.7, delta_a1=0.3, delta_c1=-1.0)
    for _ in range(10):
        out = eom_rhs(s, random_density_matrix(rng))
        assert np.max(np.abs(out - out.conj().T)) < 1e-13
        assert abs(np.trace(out)) < 1e-13


def test_rhs_shape_validation():
    with pytest.raises(ValueError):
        eom_rhs(Scenario(), np.eye(3))


def test_pure_decay_population_analytic():
    # no drives: rho_cc(t) = exp(-(gamma1 + gamma2) t)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    final = evolve(Scenario(), rho0, t_final=1.0, dt=1e-3)
    assert final[2, 2].real == pytest.approx(math.exp(-2.0), abs=1e-10)


def test_pure_decay_coherence_analytic():
    # b-c coherence decays at half the total width of c
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[1, 1] = rho0[2, 2] = 0.5
    rho0[1, 2] = rho0[2, 1] = 0.5
    final = evolve(Scenario(), rho0, t_final=1.0, dt=1e-3)
    assert abs(final[2, 1] - 0.5 * math.exp(-1.0)) < 1e-10


def test_pure_decay_steady_state_is_ground():
    rho = steady_state(build_liouvillian(Scenario()))
    assert np.max(np.abs(rho - ground_state())) < 1e-12


def test_steady_state_matches_long_evolution():
    s, _ = preset("fig5")
    direct = steady_state(build_liouvillian(s))
    integrated = evolve(s, ground_state(), t_final=200.0, dt=1e-3)
    assert np.max(np.abs(direct - integrated)) < 1e-8


def test_steady_state_is_physical_and_stationary():
    s, _ = preset("fig6b")
    liouv = build_liouvillian(s)
    rho = steady_state(liouv)
    check_density_matrix(rho)
    assert np.max(np.abs(liouv @ vec(rho))) < 1e-9


def test_steady_state_without_decay_is_rejected():
    s = Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    with pytest.raises(SteadyStateError):
        steady_state(build_liouvillian(s))


def test_steady_state_rejects_a_generator_that_leaks_trace():
    # The trace condition replaces the (a, a) row of L, so only the residual
    # check sees a defect there; the solved state is a valid density matrix.
    s, _ = preset("fig5")
    liouv = build_liouvillian(s)
    liouv[0, 0] -= 1e-3
    with pytest.raises(SteadyStateError, match=r"residual \S+ exceeds"):
        steady_state(liouv)


def test_stacked_steady_state_raises_what_the_lowest_failing_generator_raises_alone():
    fig5 = build_liouvillian(preset("fig5")[0])
    leaky = fig5.copy()
    leaky[0, 0] -= 1e-3
    dead = build_liouvillian(
        Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    )
    good = [fig5] + [build_liouvillian(preset(name)[0]) for name in ("fig6b", "fig9-left")]
    stack = np.array([good[0], good[1], leaky, good[2], dead])
    for failing, index in ((stack, 2), (stack[[0, 1, 3, 4]], 3)):
        with pytest.raises(SteadyStateError) as alone:
            steady_state(failing[index])
        assert alone.value.index is None
        with pytest.raises(SteadyStateError) as stacked:
            steady_state(failing)
        assert (str(stacked.value), stacked.value.index) == (str(alone.value), index)
    states = steady_state(np.array(good))
    assert states.shape == (3, 4, 4)
    for rho, liouv in zip(states, good):
        assert rho.tobytes() == steady_state(liouv).tobytes()


def test_random_stacks_raise_what_their_first_failing_generator_raises_alone():
    # Good preset generators mixed with one generator that fails each step
    # of steady_state: the solve, the residual on L, and positivity.
    fig5 = preset("fig5")[0]
    dead = build_liouvillian(
        Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    )
    leaky = build_liouvillian(fig5)
    leaky[0, 0] -= 1e-3
    # A negative rate on the c -> d channel: the state solves, but a
    # population goes negative.
    negative = build_liouvillian(replace(fig5, gamma3=0.0)) + 0.5 * -1.5 * lindblad._DISSIPATORS[2]
    failing = [dead, leaky, negative]
    alone = []
    for liouv, fragment in zip(failing, ("singular", "residual", "minimum eigenvalue -3.351e-02")):
        with pytest.raises(SteadyStateError, match=fragment) as info:
            steady_state(liouv)
        alone.append(str(info.value))
    good = [build_liouvillian(preset(name)[0]) for name in PRESET_NAMES]
    rng = np.random.default_rng(2008)
    positivity_before_solve = 0
    for _ in range(50):
        size = int(rng.integers(2, 10))
        # A negative kind picks a failing generator: a third of the slots.
        kinds = rng.integers(-len(failing), 2 * len(failing), size)
        picks = rng.integers(0, len(good), size)
        stack = np.array([failing[k] if k < 0 else good[p] for k, p in zip(kinds, picks)])
        bad = [k for k in range(size) if kinds[k] < 0]
        if not bad:
            states = steady_state(stack)
            for rho, liouv in zip(states, stack):
                assert rho.tobytes() == steady_state(liouv).tobytes()
            continue
        with pytest.raises(SteadyStateError) as stacked:
            steady_state(stack)
        first = bad[0]
        assert (str(stacked.value), stacked.value.index) == (alone[kinds[first]], first)
        positivity_before_solve += failing[kinds[first]] is negative and any(
            failing[kinds[k]] is dead for k in bad
        )
    assert positivity_before_solve >= 1


def test_steady_state_shape_validation():
    with pytest.raises(ValueError):
        steady_state(np.eye(4))
    with pytest.raises(ValueError):
        steady_state(np.zeros((2, 16, 4)))


def test_stability_guard():
    s, _ = preset("fig5")
    with pytest.raises(StabilityError):
        evolve(s, ground_state(), t_final=1.0, dt=0.1)


def test_step_validation():
    s = Scenario()
    with pytest.raises(ValueError):
        evolve(s, ground_state(), t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(s, ground_state(), t_final=-1.0, dt=1e-3)
    with pytest.raises(InvariantError):
        evolve(s, np.eye(4, dtype=complex), t_final=1.0, dt=1e-3)


@pytest.mark.parametrize(
    "t_final,dt,fragment",
    [
        (1.0, math.nan, "dt must be finite and positive"),
        (1.0, math.inf, "dt must be finite and positive"),
        (math.nan, 1e-3, "t_final must be finite and non-negative"),
        (math.inf, 1e-3, "t_final must be finite and non-negative"),
        (1.0, 1e-300, "exceeds the cap"),
        (1.0, 5e-324, "exceeds the cap"),
        (1.000001e6, 1e-3, "exceeds the cap"),
    ],
)
def test_step_boundary(t_final, dt, fragment):
    s = Scenario()
    with pytest.raises(ValueError, match=fragment):
        evolve(s, ground_state(), t_final=t_final, dt=dt)
    with pytest.raises(ValueError, match=fragment):
        evolve_trajectory(s, ground_state(), t_final=t_final, dt=dt)


def test_step_cap_itself_is_accepted():
    # The ground state is stationary without drives: 1e9 steps must leave it
    # there and pass the final check.
    t_final = lindblad.MAX_STEPS * 1e-3
    final = evolve(Scenario(), ground_state(), t_final=t_final, dt=1e-3)
    assert np.max(np.abs(final - ground_state())) < 1e-10


def test_integrator_fourth_order():
    s, _ = preset("fig5")
    reference = evolve(s, ground_state(), t_final=1.0, dt=5e-4)
    coarse = np.max(np.abs(evolve(s, ground_state(), t_final=1.0, dt=8e-3) - reference))
    fine = np.max(np.abs(evolve(s, ground_state(), t_final=1.0, dt=4e-3) - reference))
    # halving the step should shrink the error by about 2^4
    assert 12.0 < coarse / fine < 21.0


def test_evolve_deterministic():
    s, _ = preset("fig7")
    first = evolve(s, ground_state(), t_final=2.0, dt=1e-3)
    second = evolve(s, ground_state(), t_final=2.0, dt=1e-3)
    assert np.array_equal(first, second)


def test_trajectory_sampling():
    s, _ = preset("fig5")
    times, states = evolve_trajectory(s, ground_state(), t_final=1.0, dt=1e-3, samples=50)
    assert len(times) == 50
    assert states.shape == (50, 4, 4)
    assert np.all(np.diff(times) > 0)
    assert times[-1] == pytest.approx(1.0)
    for rho in states:
        assert abs(np.trace(rho) - 1.0) < 1e-9


# evolve jumps between checkpoints by powers of the RK4 step matrix; the
# reference below takes the same steps one mat-vec at a time.
SEQUENTIAL_TOL = 1e-10


def sequential_rk4(s, rho0, t_final, dt, samples):
    """Raw states at evolve_trajectory's sample steps, and the final state."""
    liouv = build_liouvillian(s)
    basis = np.eye(16, dtype=complex)
    k1 = liouv @ basis
    k2 = liouv @ (basis + 0.5 * dt * k1)
    k3 = liouv @ (basis + 0.5 * dt * k2)
    k4 = liouv @ (basis + dt * k3)
    step_matrix = basis + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    n_steps = round(t_final / dt)
    wanted = {round(m) for m in np.linspace(0, n_steps, samples + 1)[1:]} - {0}
    state = vec(rho0).copy()
    steps, states = [], []
    for step in range(1, n_steps + 1):
        state = step_matrix @ state
        if step in wanted:
            steps.append(step)
            states.append(unvec(state).copy())
    return steps, np.array(states), unvec(state)


ALL_FIELDS = Scenario(
    omega_a1=2.0, omega_a2=3.0, omega_c1=4.0, omega_c2=1.5,
    delta_a1=0.5, delta_a2=0.3, delta_c1=-1.0, delta_c2=-0.8,
    gamma1=0.7, gamma2=1.2, gamma3=0.9, gamma4=1.1,
)


@pytest.mark.parametrize("s", [preset("fig5")[0], ALL_FIELDS], ids=["fig5", "all-fields"])
def test_powers_match_sequential_stepping(s):
    t_final, dt, samples = 20.0, 1e-3, 7  # 20000 steps: gaps of 2857 and 2858
    steps, reference, last = sequential_rk4(s, ground_state(), t_final, dt, samples)
    final = evolve(s, ground_state(), t_final=t_final, dt=dt)
    assert np.max(np.abs(final - 0.5 * (last + last.conj().T))) < SEQUENTIAL_TOL
    times, states = evolve_trajectory(s, ground_state(), t_final, dt, samples=samples)
    assert times.tolist() == [step * dt for step in steps]
    assert np.max(np.abs(states - reference)) < SEQUENTIAL_TOL


def test_trajectory_names_the_failing_step(monkeypatch):
    # A generator leaking population at rate 4e-9: the trace error passes
    # 1e-9 between t = 0.2 and t = 0.3, so the third sample is the first bad one.
    leaky = build_liouvillian(Scenario()) - 4e-9 * np.eye(16)
    monkeypatch.setattr(lindblad, "build_liouvillian", lambda s: leaky)
    with pytest.raises(InvariantError, match="state at step 300:"):
        evolve_trajectory(Scenario(), ground_state(), t_final=1.0, dt=1e-3, samples=10)


@pytest.mark.parametrize("extra", [1, 7, 1000])
def test_samples_beyond_the_step_count_give_every_step(extra):
    s, _ = preset("fig5")
    n_steps = 40
    every = evolve_trajectory(s, ground_state(), n_steps * 1e-3, 1e-3, samples=n_steps)
    more = evolve_trajectory(s, ground_state(), n_steps * 1e-3, 1e-3, samples=n_steps + extra)
    assert every[0].tobytes() == more[0].tobytes()
    assert every[1].tobytes() == more[1].tobytes()


def test_one_step_with_a_million_samples_returns_one_sample():
    times, states = evolve_trajectory(Scenario(), ground_state(), 1e-3, 1e-3, samples=10**6)
    assert times.tolist() == [1e-3]
    assert states.shape == (1, 4, 4)


def test_trajectory_validation():
    s = Scenario()
    with pytest.raises(ValueError):
        evolve_trajectory(s, ground_state(), t_final=1.0, dt=1e-3, samples=0)
    with pytest.raises(ValueError):
        evolve_trajectory(s, ground_state(), t_final=1e-6, dt=1e-3)
