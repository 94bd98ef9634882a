"""Tests for the generator assembly, steady states, and the integrator."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from diamondsim import algebra, lindblad
from diamondsim.algebra import herm_eigen, solve_linear
from diamondsim.atom import MAX_RATE, Scenario, closure_complete
from diamondsim.cli import PRESET_NAMES, preset
from diamondsim.errors import InputError, SimulationError
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
)
from eom import eom_rhs
from exact import exact_steady_state
from mirror import MIRROR_PERMUTATION, mirror_scenario
from probe_response import POPULATIONS, PROBE_GENERATOR, probe_response_terms


def random_density_matrix(rng):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def random_hermitian_unit_trace(rng):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (raw + raw.conj().T)
    return h - np.eye(4) * (np.trace(h).real - 1.0) / 4.0


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
    with pytest.raises(ValueError, match="expected 5 context labels, got 4"):
        check_density_matrix(stack, context=labels[:4])


def test_check_density_matrix_returns_the_symmetrized_state():
    rng = np.random.default_rng(8)
    rho = random_density_matrix(rng)
    rho[0, 1] += 1e-12  # a Hermiticity defect inside the tolerance
    assert check_density_matrix(rho).tobytes() == (0.5 * (rho + rho.conj().T)).tobytes()
    stack = np.array([rho, random_density_matrix(rng)])
    symmetric = check_density_matrix(stack)
    assert symmetric.shape == (2, 4, 4)
    assert symmetric.tobytes() == (0.5 * (stack + stack.conj().transpose(0, 2, 1))).tobytes()


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


def test_check_density_matrix_fails_closed_on_inf_without_a_warning():
    # inf - inf in the defect is NaN, which must fail the check without
    # numpy's warning, an error under this suite's settings.
    message = r"^density matrix: Hermiticity defect nan >= 1e-9$"
    inf = np.diag([np.inf, 0.0, 0.0, 0.0])
    with pytest.raises(InvariantError, match=message) as info:
        check_density_matrix(inf)
    assert info.value.index is None
    with pytest.raises(InvariantError, match=message) as info:
        check_density_matrix(np.array([ground_state(), inf, ground_state()]))
    assert info.value.index == 1
    # Finite entries whose trace overflows fail the trace check the same way.
    with pytest.raises(InvariantError, match=r"\|trace - 1\| = inf >= 1e-9$"):
        check_density_matrix(np.diag([1e308, 1e308, 0.0, 0.0]))


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


def checked_one_at_a_time(stack, labels):
    """What a loop of single-matrix checks raises first, with its position."""
    for k, (rho, label) in enumerate(zip(stack, labels)):
        try:
            check_density_matrix(rho, context=label)
        except InvariantError as exc:
            return str(exc), k
    return None


@pytest.mark.parametrize(
    "pattern, eigensolves",
    [
        ("GGBOB", 2),  # stops at the first B: G and B are eigensolved
        ("GOGOG", 2),  # passes: G and O once each
        ("GOOGT", 2),  # T fails on its trace, before any eigensolve of its own
        ("OGOOGGB", 3),
    ],
)
def test_check_eigensolves_each_distinct_matrix_once(pattern, eigensolves, monkeypatch):
    pool = {
        "G": ground_state(),
        "O": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
        "B": np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex),
        "T": 2.0 * ground_state(),
    }
    stack = np.array([pool[name] for name in pattern])
    labels = [f"matrix {k}" for k in range(len(pattern))]
    expected = checked_one_at_a_time(stack, labels)
    calls = []

    def counting(matrix):
        calls.append(matrix.tobytes())
        return herm_eigen(matrix)

    monkeypatch.setattr(lindblad, "herm_eigen", counting)
    if expected is None:
        assert check_density_matrix(stack, context=labels).shape == stack.shape
    else:
        with pytest.raises(InvariantError) as info:
            check_density_matrix(stack, context=labels)
        assert (str(info.value), info.value.index) == expected
    assert len(calls) == len(set(calls)) == eigensolves


#: A valid state that fail_eigh_on makes the eigensolver refuse.
UNSOLVABLE = np.diag([0.25, 0.25, 0.5, 0.0]).astype(complex)


def fail_eigh_on(monkeypatch, unsolvable):
    """Make np.linalg.eigh raise LinAlgError("no") on this one matrix only."""
    eigh = np.linalg.eigh

    def flaky(matrix):
        if np.array_equal(matrix, unsolvable):
            raise np.linalg.LinAlgError("no")
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", flaky)


def test_an_eigensolver_failure_names_the_matrix(monkeypatch):
    # The check fails closed: a state whose positivity cannot be verified is
    # rejected with its label and, in a stack, its position.
    fail_eigh_on(monkeypatch, UNSOLVABLE)
    message = "eigendecomposition failed: no"
    with pytest.raises(InvariantError, match=f"^density matrix: {message}$") as info:
        check_density_matrix(UNSOLVABLE)
    assert info.value.index is None
    assert isinstance(info.value.__cause__, SimulationError)
    stack = np.array([ground_state(), ground_state(), UNSOLVABLE, ground_state()])
    with pytest.raises(InvariantError, match=f"^matrix 2: {message}$") as info:
        check_density_matrix(stack, context=[f"matrix {k}" for k in range(4)])
    assert info.value.index == 2


def test_liouvillian_shape_and_trace_preservation():
    s = Scenario(omega_a1=1.0, omega_a2=2.0, omega_c1=3.0, omega_c2=4.0, delta_a1=0.5)
    liouv = build_liouvillian(s)
    assert liouv.shape == (16, 16)
    population_rows = liouv[0] + liouv[5] + liouv[10] + liouv[15]
    assert np.max(np.abs(population_rows)) < 1e-13


MAGNITUDE = st.floats(min_value=0.0, max_value=MAX_RATE)
SIGNED = st.floats(min_value=-MAX_RATE, max_value=MAX_RATE)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.tuples(*[MAGNITUDE] * 4), st.tuples(*[SIGNED] * 4), st.tuples(*[MAGNITUDE] * 4))
def test_population_rows_sum_to_zero_up_to_one_rounding_in_the_cc_column(omegas, deltas, gammas):
    # Summed as _propagate sums them into the trace row.
    total = build_liouvillian(Scenario(*omegas, *deltas, *gammas))[[0, 5, 10, 15]].sum(axis=0)
    assert np.count_nonzero(np.delete(total, 10)) == 0
    assert abs(total[10]) <= 2.0**-52 * max(gammas[:2])


#: Completed scenarios with drives up to 100 (often zero), detunings within
#: 100 and every decay rate positive, from 1e-3 to 1e3.
DECAYING = st.builds(
    lambda omegas, deltas, gammas, target: closure_complete(
        Scenario(*omegas, *deltas, *gammas, closure_target=target)
    ),
    st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))] * 4),
    st.tuples(*[st.floats(min_value=-100.0, max_value=100.0)] * 4),
    st.tuples(*[st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)] * 4),
    st.sampled_from(["a1", "a2", "c1", "c2"]),
)
# The worst mirror mismatch over 12000 seeded scenarios of this range was 3.3e-12.
MIRROR_TOL = 1e-10


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(DECAYING)
def test_steady_state_is_physical_for_positive_decay_rates(s):
    rho = steady_state(build_liouvillian(s))
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho)[0] >= -1e-8


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(DECAYING)
def test_mirror_map_commutes_with_the_steady_state_solve(s):
    p = MIRROR_PERMUTATION
    rho = steady_state(build_liouvillian(s))
    mirrored = steady_state(build_liouvillian(mirror_scenario(s)))
    assert np.max(np.abs(p @ rho @ p.T - mirrored)) < MIRROR_TOL


#: The ten presets and the benchmark's seeded range: drives in [0, 20],
#: zero detunings, decay rates in [0.5, 2], targets a1, a2 or c1.
WEAK_PROBE_BASES = st.one_of(
    st.sampled_from([preset(name)[0] for name in PRESET_NAMES]),
    st.builds(
        lambda omegas, gammas, target: Scenario(
            *omegas, 0.0, 0.0, 0.0, 0.0, 0.0, *gammas, closure_target=target
        ),
        st.tuples(*[st.floats(min_value=0.0, max_value=20.0)] * 3),
        st.tuples(*[st.floats(min_value=0.5, max_value=2.0)] * 4),
        st.sampled_from(["a1", "a2", "c1"]),
    ),
)
# (rho - rho0)/w - rho1 is w rho2 + O(w^2).  Its largest entry over the
# presets was 0.283 w (fig10-right), over 2000 uniform draws from the seeded
# range 0.235 w, and over a corner scan of that range 1.71 w (omega_a2 =
# 0.216, the other drives 0, every decay rate 0.5), the same at w = 1e-2,
# 1e-3 and 1e-4; over this test's 100 examples 0.928 w.
WEAK_PROBE_TOL = 2.0


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(WEAK_PROBE_BASES, st.floats(min_value=0.0, max_value=20.0))
def test_the_weak_probe_limit_is_the_linear_response(s, omega):
    s = closure_complete(s)
    base = build_liouvillian(replace(s, omega_c2=0.0))
    probed = build_liouvillian(replace(s, omega_c2=omega))
    assert probed.tobytes() == (base + omega * PROBE_GENERATOR).tobytes()
    rho0 = steady_state(base).reshape(16)
    rho1 = sum(probe_response_terms(s)).reshape(16)
    # Both were below 5e-17 (relative to 1 + max|L0| for the residual).
    residual = np.max(np.abs(base @ rho1 + PROBE_GENERATOR @ rho0))
    assert residual < 1e-12 * (1.0 + np.max(np.abs(base)))
    assert abs(rho1[POPULATIONS].sum()) < 1e-12
    for w in (1e-2, 1e-3, 1e-4):
        rho = steady_state(build_liouvillian(replace(s, omega_c2=w))).reshape(16)
        assert np.max(np.abs((rho - rho0) / w - rho1)) < WEAK_PROBE_TOL * w


def test_fig9_left_probe_gain_comes_from_coherences():
    # With gamma2 = gamma4, d is fed only by c's decay, so pop_c = pop_d in
    # rho0 and the populations give the probe nothing to absorb (measured at
    # most 3.5e-19 over the 101 points); the coherences give gain everywhere,
    # -6.8e-3 at delta = +-5 (omega_c1) to -1.4e-6 at the grid's edges.
    base = preset("fig9-left")[0]
    for delta in np.linspace(-25, 25, 101):
        populations, coherences = probe_response_terms(replace(base, delta_c2=float(delta)))
        assert abs(populations[2, 3].imag) < 1e-15, delta
        assert coherences[2, 3].imag < 0.0, delta


def test_a_b_d_c_ladder_probe_absorbs_through_both_terms():
    # The sign convention: on a plain ladder (b-d driven, d-c probed) both
    # terms absorb, 0.132 from the populations and 0.066 from the coherences.
    populations, coherences = probe_response_terms(Scenario(omega_a2=0.3))
    assert populations[2, 3].imag == pytest.approx(0.1316366827556, rel=1e-9)
    assert coherences[2, 3].imag == pytest.approx(0.0658183413778, rel=1e-9)


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
        gap = np.abs(liouv @ rho.reshape(16) - eom_rhs(s, rho).reshape(16))
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
    assert np.max(np.abs(liouv @ rho.reshape(16))) < 1e-9


def test_returned_steady_states_match_the_exact_oracle():
    # Every number is 10^U[-3, 3], each drive is off with probability 0.2,
    # detunings take random signs and the closure target is a1, a2 or c1.
    # At this range every scenario returns a state, within 1e-9 of the
    # 40-digit solve of its own system.
    rng = np.random.default_rng(1111)
    for _ in range(50):
        drives = 10.0 ** rng.uniform(-3, 3, 4) * (rng.random(4) >= 0.2)
        deltas = 10.0 ** rng.uniform(-3, 3, 4) * rng.choice((-1.0, 1.0), 4)
        gammas = 10.0 ** rng.uniform(-3, 3, 4)
        target = ("a1", "a2", "c1")[rng.integers(3)]
        numbers = [*drives.tolist(), *deltas.tolist(), *gammas.tolist()]
        liouv = build_liouvillian(closure_complete(Scenario(*numbers, closure_target=target)))
        assert np.max(np.abs(steady_state(liouv) - exact_steady_state(liouv))) < 1e-9, numbers


def test_steady_state_without_decay_is_rejected():
    s = Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    with pytest.raises(SteadyStateError):
        steady_state(build_liouvillian(s))


# Singular generators at mixed extremes inside the cap.  Elimination fails a
# pivot on each; substituting back through the carried-on pivots used to
# overflow on the way to that error, and pytest makes the warning an error.
MIXED_EXTREMES = [
    (
        Scenario(omega_a1=1.0, omega_c1=1e-300, omega_c2=1.0, delta_a2=-1e38, delta_c1=1e60,
                 delta_c2=1.0, gamma1=1e-300, gamma2=1e76, gamma3=1e-300, gamma4=1e76),
        "pivot 0 (|pivot| = 1.000e+00, threshold = 2.000e+62)",
    ),
    (
        Scenario(omega_a1=1e76, omega_a2=1e-300, omega_c1=1e60, delta_a1=-1.0, delta_a2=1e-300,
                 delta_c1=1e38, delta_c2=-1e-300, gamma1=1.0, gamma2=1e38, gamma3=1e76,
                 gamma4=1e76, closure_target="a2"),
        "pivot 5 (|pivot| = 8.000e+59, threshold = 4.000e+62)",
    ),
    (
        Scenario(omega_a1=1e38, omega_a2=1e-300, omega_c1=1e-300, omega_c2=1e-300, delta_a2=1e60,
                 delta_c1=-1e38, delta_c2=-1e20, gamma1=1e20, gamma2=1e38, gamma3=0.0,
                 gamma4=1e20, closure_target="c2"),
        "pivot 0 (|pivot| = 1.000e+38, threshold = 1.000e+46)",
    ),
]


@pytest.mark.parametrize("s, pivot", MIXED_EXTREMES, ids=["none", "a2", "c2"])
def test_singular_generators_at_mixed_extremes_fail_without_overflow(s, pivot):
    liouv = build_liouvillian(closure_complete(s))
    message = f"non-unique or absent steady state: matrix is numerically singular at {pivot}"
    with pytest.raises(SteadyStateError) as alone:
        steady_state(liouv)
    assert str(alone.value) == message
    # In a stack the failing system's arithmetic stays finite beside a good one.
    with pytest.raises(SteadyStateError) as stacked:
        steady_state(np.array([build_liouvillian(preset("fig5")[0]), liouv]))
    assert str(stacked.value) == message and stacked.value.index == 1


def test_steady_state_rejects_a_generator_that_leaks_trace():
    # The trace condition replaces the (a, a) row of L, so only the residual
    # check sees a defect there; the solved state is a valid density matrix.
    s, _ = preset("fig5")
    liouv = build_liouvillian(s)
    liouv[0, 0] -= 1e-3
    with pytest.raises(SteadyStateError, match=r"residual \S+ exceeds"):
        steady_state(liouv)


def test_steady_state_checks_the_raw_solution():
    # P L P^-1, with P = 2 at the rho_ab position, has the steady state
    # P vec(rho): its rho_ab is doubled and no longer rho_ba's conjugate.
    liouv = build_liouvillian(closure_complete(preset("fig5")[0]))
    scale = np.ones(16)
    scale[1] = 2.0
    with pytest.raises(SteadyStateError, match=r"Hermiticity defect 1\.007e-02 >= 1e-9$"):
        steady_state(scale[:, None] * liouv / scale[None, :])


def test_steady_state_rejects_a_non_finite_generator():
    liouv = build_liouvillian(preset("fig5")[0])
    liouv[3, 7] = np.nan
    with pytest.raises(ValueError, match="requires a generator whose inf-norm is finite"):
        steady_state(liouv)


@pytest.mark.parametrize("value", [1e308, np.inf, np.nan], ids=["overflow", "inf", "nan"])
def test_steady_state_fails_closed_on_a_bad_replaced_row(value):
    # The trace condition replaces row 0, so no solve sees it.  A row sum past
    # the double range, or an inf entry, would make the residual bound inf,
    # and a NaN entry would make the residual NaN; all three fail as a NaN
    # anywhere else does.
    fig5 = build_liouvillian(preset("fig5")[0])
    bad = fig5.copy()
    bad[0, :] = value
    for liouv in (bad, np.array([fig5, bad])):
        with pytest.raises(ValueError, match="steady_state requires a generator whose inf-norm"):
            steady_state(liouv)


def test_a_good_stack_makes_one_solve_and_no_retry(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return solve_linear(a, b)

    monkeypatch.setattr(lindblad, "solve_linear", counting)
    steady_state(np.array([build_liouvillian(preset(name)[0]) for name in PRESET_NAMES]))
    assert calls == [(10, 16, 16)]


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


def test_a_failing_stack_is_eliminated_once_then_once_per_generator_to_the_failure(monkeypatch):
    # solve_linear takes one inf-norm per elimination; steady_state's own
    # norm goes through lindblad's binding and is not counted.
    eliminations, norm = [], algebra.matrix_inf_norm

    def counting(a):
        eliminations.append(np.shape(a))
        return norm(a)

    monkeypatch.setattr(algebra, "matrix_inf_norm", counting)
    dead = build_liouvillian(
        Scenario(omega_a1=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0)
    )
    good = [build_liouvillian(preset(name)[0]) for name in PRESET_NAMES[:8]]
    with pytest.raises(SteadyStateError, match="singular at pivot 4 ") as alone:
        steady_state(dead)
    assert alone.value.index is None
    assert eliminations == [(1, 16, 16)]
    eliminations.clear()
    with pytest.raises(SteadyStateError) as stacked:
        steady_state(np.array(good[:5] + [dead] + good[5:]))
    assert (str(stacked.value), stacked.value.index) == (str(alone.value), 5)
    # The whole stack once, then generators 0 to 5 alone.
    assert eliminations == [(9, 16, 16)] + [(1, 16, 16)] * 6


def test_an_eigensolver_failure_is_a_steady_state_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    fig5 = build_liouvillian(preset("fig5")[0])
    message = (
        "non-unique or absent steady state: steady state: "
        "eigendecomposition failed: Eigenvalues did not"
    )
    for liouv, index in ((fig5, None), (np.array([fig5, fig5]), 0)):
        with pytest.raises(SteadyStateError, match=f"^{message}") as info:
            steady_state(liouv)
        assert info.value.index == index


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


@pytest.mark.parametrize(
    "call, shape",
    [
        pytest.param(
            lambda: solve_linear(np.zeros((0, 3, 3)), np.zeros((0, 3))), (0, 3), id="solve"
        ),
        pytest.param(lambda: steady_state(np.zeros((0, 16, 16))), (0, 4, 4), id="steady"),
        pytest.param(lambda: check_density_matrix(np.zeros((0, 4, 4))), (0, 4, 4), id="check"),
        pytest.param(lambda: algebra.matrix_inf_norm(np.zeros((0, 3, 3))), (0,), id="norm"),
    ],
)
def test_an_empty_stack_gives_an_empty_result(call, shape):
    assert call().shape == shape


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
    # A stack of initial states passes check_density_matrix but is not one state.
    with pytest.raises(ValueError, match=r"one 4x4 density matrix, got shape \(2, 4, 4\)"):
        evolve(s, np.array([np.eye(4) / 4] * 2), t_final=1.0, dt=1e-3)


_STEP_CAP = "exceeds the cap of 1e+09 steps"
_OVER_CAP = "must be at most 1e+76 in magnitude, got 1" + "0" * 31 + "..."


@pytest.mark.parametrize(
    "t_final,dt,fragment,fields",
    [
        (1.0, math.nan, "dt must be finite, got nan", ("dt",)),
        (1.0, math.inf, "dt must be finite, got inf", ("dt",)),
        (math.nan, 1e-3, "t_final must be finite, got nan", ("t_final",)),
        (math.inf, 1e-3, "t_final must be finite, got inf", ("t_final",)),
        (1.0, 1e-300, _STEP_CAP, ("t_final", "dt")),
        (1.0, 5e-324, _STEP_CAP, ("t_final", "dt")),
        (1.000001e6, 1e-3, _STEP_CAP, ("t_final", "dt")),
        # Past the double range: compared exactly, never converted to a float.
        (10**5000, 1e-3, f"t_final {_OVER_CAP} (5001 digits)", ("t_final",)),
        (1.0, 10**400, f"dt {_OVER_CAP} (401 digits)", ("dt",)),
        (1.0, 1e-3 + 0j, "dt must be a real number, got (0.001+0j)", ("dt",)),
        (1.0, "1e-3", "dt must be a real number, got '1e-3'", ("dt",)),
        (1.0, 0.0, "dt must be positive, got 0.0", ("dt",)),
        (1.0, -0.0, "dt must be positive, got -0.0", ("dt",)),
        (1.0, -1e-3, "dt must be positive, got -0.001", ("dt",)),
    ],
    ids=[
        "dt-nan", "dt-inf", "t_final-nan", "t_final-inf", "cap-dt-1e-300", "cap-dt-5e-324",
        "cap-t_final-1.000001e6", "t_final-5001-digits", "dt-401-digits", "dt-complex", "dt-str",
        "dt-zero", "dt-negative-zero", "dt-negative",
    ],
)
def test_step_boundary(t_final, dt, fragment, fields):
    s = Scenario()
    for run in (evolve, evolve_trajectory):
        with pytest.raises(InputError) as info:
            run(s, ground_state(), t_final=t_final, dt=dt)
        assert fragment in str(info.value)
        assert info.value.fields == fields


def test_a_float16_step_runs_as_its_double():
    # t_final / dt in float16 would overflow to inf, with RuntimeWarnings that
    # pytest turns into errors; both values run as Python floats instead.
    s = closure_complete(preset("fig5")[0])
    half, double = np.float16(1e-3), float(np.float16(1e-3))
    final = evolve(s, ground_state(), t_final=1.0, dt=half)
    assert final.tobytes() == evolve(s, ground_state(), t_final=1.0, dt=double).tobytes()
    times, states = evolve_trajectory(s, ground_state(), t_final=1.0, dt=half, samples=20)
    expected = evolve_trajectory(s, ground_state(), t_final=1.0, dt=double, samples=20)
    assert times.dtype == np.float64
    assert times.tobytes() == expected[0].tobytes()
    assert states.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize(
    "dt", [np.longdouble(1e-3), np.float16(1e-3), 1], ids=["longdouble", "float16", "int"]
)
def test_trajectory_times_are_doubles_whatever_the_step_type(dt):
    # The times take the float the stepping reads dt as, not dt's own type;
    # a float dt's times stay its steps times dt.
    s = Scenario(gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.1)
    t_final = 50 * float(dt)
    times, states = evolve_trajectory(s, ground_state(), t_final, dt, samples=7)
    expected = evolve_trajectory(s, ground_state(), t_final, float(dt), samples=7)
    assert times.dtype == np.float64 and times.tobytes() == expected[0].tobytes()
    assert states.tobytes() == expected[1].tobytes()
    assert expected[0].tobytes() == (np.array(sampled_steps(50, 7)) * float(dt)).tobytes()


def test_step_cap_itself_is_accepted():
    # The ground state is stationary without drives: 1e9 steps must leave it
    # there and pass the final check.
    t_final = lindblad.MAX_STEPS * 1e-3
    final = evolve(Scenario(), ground_state(), t_final=t_final, dt=1e-3)
    assert np.max(np.abs(final - ground_state())) < 1e-10
    # Sample steps near the cap, one with a mark exactly halfway between
    # two steps (499999998.5, rounded to even).
    for n_steps, samples in [(10**9, 200), (10**9 - 1, 7), (999_999_997, 2)]:
        times, _ = evolve_trajectory(Scenario(), ground_state(), n_steps * 1e-3, 1e-3, samples)
        assert times.tolist() == [step * 1e-3 for step in sampled_steps(n_steps, samples)]


@pytest.mark.parametrize("t_final", [0.0, 4e-4])
def test_evolve_without_steps_returns_the_checked_initial_state(t_final):
    # round(t_final / dt) = 0 steps.  rho0 never enters trace coordinates,
    # so it comes back bit for bit also when its populations would not sum
    # exactly there, as for most random states.
    rho0 = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    rho0[0, 2], rho0[2, 0] = 0.1 + 0.05j, 0.1 - 0.05j
    rng = np.random.default_rng(24)
    for state in [rho0] + [random_density_matrix(rng) for _ in range(60)]:
        final = evolve(preset("fig5")[0], state, t_final=t_final, dt=1e-3)
        assert final.tobytes() == check_density_matrix(state).tobytes()


def test_integrator_fourth_order():
    s, _ = preset("fig5")
    reference = evolve(s, ground_state(), t_final=1.0, dt=5e-4)
    coarse = np.max(np.abs(evolve(s, ground_state(), t_final=1.0, dt=8e-3) - reference))
    fine = np.max(np.abs(evolve(s, ground_state(), t_final=1.0, dt=4e-3) - reference))
    # halving the step should shrink the error by about 2^4
    assert 12.0 < coarse / fine < 21.0


def test_trajectory_error_follows_the_rk4_law_against_expm():
    # Every sample lies within 0.05 h^4 of expm(t L) rho0, h = dt ||L||_inf;
    # the worst measured constant is 0.038 at every h.  At h = 0.25 a coarse
    # sample may fall below the positivity floor (fig6a and one seeded
    # scenario at t = 1 do), which must raise InvariantError; at h <= 0.1
    # every run returns.
    rng = np.random.default_rng(12)
    scenarios = [preset(name)[0] for name in PRESET_NAMES]
    for k in range(20):
        drives, gammas = rng.uniform(0.0, 20.0, 4), rng.uniform(0.5, 2.0, 4)
        target = ("a1", "a2", "c1")[k % 3]
        scenarios.append(Scenario(*drives, 0.0, 0.0, 0.0, 0.0, *gammas, closure_target=target))
    rho0 = ground_state()
    failed = []
    for s in map(closure_complete, scenarios):
        liouv = build_liouvillian(s)
        norm = algebra.matrix_inf_norm(liouv)
        for h, t_final in itertools.product((0.005, 0.05, 0.1, 0.25), (1.0, 20.0)):
            dt = t_final / round(t_final * norm / h)
            try:
                times, states = evolve_trajectory(s, rho0, t_final, dt, samples=50)
            except InvariantError:
                failed.append(h)
                continue
            exact = (expm(times[:, None, None] * liouv) @ rho0.ravel()).reshape(-1, 4, 4)
            assert np.max(np.abs(states - exact)) <= 0.05 * (dt * norm) ** 4
    assert all(h > 0.1 for h in failed)


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


def sampled_steps(n_steps, samples):
    """evolve_trajectory's sample steps, one Python round per mark."""
    return sorted({round(m) for m in np.linspace(0, n_steps, samples + 1)[1:]} - {0})


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
    wanted = set(sampled_steps(n_steps, samples))
    state = np.array(rho0, dtype=complex).reshape(16)
    steps, states = [], []
    for step in range(1, n_steps + 1):
        state = step_matrix @ state
        if step in wanted:
            steps.append(step)
            states.append(state.reshape(4, 4))
    return steps, np.array(states), state.reshape(4, 4)


ALL_FIELDS = Scenario(
    omega_a1=2.0, omega_a2=3.0, omega_c1=4.0, omega_c2=1.5,
    delta_a1=0.5, delta_a2=0.3, delta_c1=-1.0, delta_c2=-0.8,
    gamma1=0.7, gamma2=1.2, gamma3=0.9, gamma4=1.1,
)


# 20000 steps in 7 samples give gaps of 2857 and 2858; 600 steps in 200
# samples, and 3 steps in one, give gaps of 3.
@pytest.mark.parametrize(
    "s, t_final, dt, samples",
    [
        pytest.param(preset("fig5")[0], 20.0, 1e-3, 7, id="fig5"),
        pytest.param(ALL_FIELDS, 20.0, 1e-3, 7, id="all-fields"),
        pytest.param(preset("fig5")[0], 0.6, 1e-3, 200, id="fig5-gaps-of-3"),
        pytest.param(ALL_FIELDS, 0.6, 1e-3, 200, id="all-fields-gaps-of-3"),
        pytest.param(preset("fig5")[0], 3e-3, 1e-3, 1, id="fig5-3-steps"),
        pytest.param(ALL_FIELDS, 3e-3, 1e-3, 1, id="all-fields-3-steps"),
    ],
)
def test_powers_match_sequential_stepping(s, t_final, dt, samples):
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


def test_trajectory_names_the_first_bad_sample_among_repeats(monkeypatch):
    # A bad sample that repeats before and after good ones: only first
    # occurrences are checked, and the error is the one the whole stack gives.
    good, other = ground_state(), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    samples = [good, good, bad, other, bad, good, bad]
    pairs = [(10 * (k + 1), state) for k, state in enumerate(samples)]
    steps = [step for step, _ in pairs]
    monkeypatch.setattr(
        lindblad, "_propagate", lambda *args, **kwargs: (steps, np.array([good, *samples]))
    )
    with pytest.raises(InvariantError) as whole:
        check_density_matrix(np.array(samples), [f"state at step {step}" for step, _ in pairs])
    with pytest.raises(InvariantError) as info:
        evolve_trajectory(Scenario(), ground_state(), t_final=1.0, dt=1e-3, samples=7)
    assert str(info.value) == str(whole.value)
    assert str(info.value).startswith("state at step 30: minimum eigenvalue -2.000e-01")
    assert info.value.index == whole.value.index == 2


def test_trajectory_names_the_sample_whose_eigensolve_fails(monkeypatch):
    good, other = ground_state(), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    samples = [good, good, other, UNSOLVABLE, good, UNSOLVABLE]
    steps = [10 * (k + 1) for k in range(len(samples))]
    monkeypatch.setattr(
        lindblad, "_propagate", lambda *args, **kwargs: (steps, np.array([good, *samples]))
    )
    fail_eigh_on(monkeypatch, UNSOLVABLE)
    with pytest.raises(InvariantError) as info:
        evolve_trajectory(Scenario(), ground_state(), t_final=1.0, dt=1e-3, samples=6)
    assert str(info.value) == "state at step 40: eigendecomposition failed: no"
    assert info.value.index == 3


def test_trajectory_eigensolves_each_distinct_sample_once(monkeypatch):
    # Past the transient, fig5's samples repeat the steady state bit for bit.
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return herm_eigen(matrix)

    monkeypatch.setattr(lindblad, "herm_eigen", counting)
    times, states = evolve_trajectory(preset("fig5")[0], ground_state(), 200.0, 1e-3, samples=200)
    distinct = {state.tobytes() for state in states}
    assert len(calls) == 1 + len(distinct) == 56  # the initial state, then the samples
    assert hashlib.sha256(times.tobytes()).hexdigest() == (
        "1e6baebbad8cc37c5b469205da2eeb2ff4a6203030f222763b3ef63d82170496"
    )
    assert hashlib.sha256(states.tobytes()).hexdigest() == (
        "0e37240d5f6b6bdf1e092c1af6e8444bb8d0d617eedccd35d145b8fbb9d54fbf"
    )


@pytest.mark.parametrize("extra", [1, 7, 1000])
def test_samples_beyond_the_step_count_give_every_step(extra):
    s, _ = preset("fig5")
    n_steps = 40
    every = evolve_trajectory(s, ground_state(), n_steps * 1e-3, 1e-3, samples=n_steps)
    more = evolve_trajectory(s, ground_state(), n_steps * 1e-3, 1e-3, samples=n_steps + extra)
    assert every[0].tobytes() == more[0].tobytes()
    assert every[1].tobytes() == more[1].tobytes()
    assert more[0].tolist() == [step * 1e-3 for step in sampled_steps(n_steps, n_steps + extra)]


def test_one_step_with_a_million_samples_returns_one_sample():
    times, states = evolve_trajectory(Scenario(), ground_state(), 1e-3, 1e-3, samples=10**6)
    assert times.tolist() == [1e-3]
    assert states.shape == (1, 4, 4)


def test_samples_past_the_count_cap_are_rejected_before_stepping(monkeypatch):
    # One step would give one sample, but the count rule comes first: no
    # sampling marks or states are allocated.
    def no_propagate(*args, **kwargs):
        raise AssertionError("_propagate ran")

    monkeypatch.setattr(lindblad, "_propagate", no_propagate)
    with pytest.raises(InputError, match=r"^samples must be at most 1000000, got 1000001$") as info:
        evolve_trajectory(Scenario(), ground_state(), 1e-3, 1e-3, samples=10**6 + 1)
    assert info.value.fields == ("samples",)


@pytest.mark.parametrize(
    "samples, message",
    [
        (0, "samples must be at least 1, got 0"),
        (-(10**5000), "samples must be at least 1, got -1" + "0" * 31 + "... (5001 digits)"),
    ],
    ids=["zero", "5001-digit"],
)
def test_trajectory_samples_messages(samples, message):
    with pytest.raises(InputError) as info:
        evolve_trajectory(Scenario(), ground_state(), 1e-3, 1e-3, samples=samples)
    assert str(info.value) == message
    assert info.value.fields == ("samples",)


def test_trajectory_validation():
    s = Scenario()
    with pytest.raises(ValueError):
        evolve_trajectory(s, ground_state(), t_final=1.0, dt=1e-3, samples=0)
    with pytest.raises(InputError, match="too short") as info:
        evolve_trajectory(s, ground_state(), t_final=1e-6, dt=1e-3)
    assert info.value.fields == ("t_final", "dt")
    with pytest.raises(ValueError, match=r"got shape \(2, 4, 4\)"):
        evolve_trajectory(s, np.array([np.eye(4) / 4] * 2), t_final=1.0, dt=1e-3)


def test_trajectory_samples_must_be_an_integer():
    s = Scenario(omega_a1=1.0)
    with pytest.raises(ValueError, match="samples must be an integer, got 2.5"):
        evolve_trajectory(s, ground_state(), t_final=0.01, dt=1e-3, samples=2.5)
    with pytest.raises(ValueError, match="samples must be an integer"):
        evolve_trajectory(s, ground_state(), t_final=0.01, dt=1e-3, samples=2.0)
    times, _ = evolve_trajectory(s, ground_state(), t_final=0.01, dt=1e-3, samples=np.int64(2))
    assert len(times) == 2
