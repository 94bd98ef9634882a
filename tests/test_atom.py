"""Tests for the parameter model, closure completion, and the mirror swap."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diamondsim import atom
from diamondsim.atom import (
    CLOSURE_TARGETS,
    MAX_RATE,
    ClosureError,
    Scenario,
    build_hamiltonian,
    closure_complete,
)
from diamondsim.errors import InputError
from mirror import MIRROR_PERMUTATION, mirror_scenario

SCENARIO_NUMBERS = tuple(f.name for f in fields(Scenario) if f.name != "closure_target")


def closure_defect(s):
    """The open-loop defect delta_a1 + delta_c1 - delta_a2 - delta_c2."""
    return s.delta_a1 + s.delta_c1 - s.delta_a2 - s.delta_c2


def test_closure_defect_formula():
    drives = dict(omega_a1=1.0, omega_a2=1.0, omega_c1=1.0, omega_c2=1.0)
    s = Scenario(**drives, delta_a1=1.0, delta_c1=2.0, delta_a2=0.5, delta_c2=-3.0)
    with pytest.raises(ClosureError, match=r"delta_a2 - delta_c2 = 5\.500e\+00$") as info:
        closure_complete(s)
    assert info.value.index is None


@pytest.mark.parametrize("target", ["a1", "a2", "c1", "c2"])
def test_completion_fixes_only_the_target(target):
    s = Scenario(
        omega_a1=1.0,
        delta_a1=0.7,
        delta_a2=-1.3,
        delta_c1=2.2,
        delta_c2=0.4,
        closure_target=target,
    )
    done = closure_complete(s)
    assert abs(closure_defect(done)) < 1e-12
    changed = f"delta_{target}"
    for name in ("delta_a1", "delta_a2", "delta_c1", "delta_c2"):
        if name != changed:
            assert getattr(done, name) == getattr(s, name)


@pytest.mark.parametrize("target", ["a1", "a2", "c1", "c2"])
def test_completion_idempotent(target):
    s = Scenario(delta_a1=0.3, delta_a2=1.9, delta_c1=-0.8, delta_c2=5.0, closure_target=target)
    once = closure_complete(s)
    assert closure_complete(once) == once


#: Rabi frequencies zero or not, and detunings whose completions stay far
#: under MAX_RATE.
RABI = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
DETUNING = st.floats(min_value=-1e6, max_value=1e6)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.tuples(*[RABI] * 4), st.tuples(*[DETUNING] * 4), st.sampled_from(CLOSURE_TARGETS))
def test_completion_is_idempotent_bit_for_bit_under_every_target(omegas, deltas, target):
    s = Scenario(*omegas, *deltas, closure_target=target)
    try:
        once = closure_complete(s)
    except ClosureError:
        assert target == "none" and min(omegas) > 0.0
        return
    assert repr(closure_complete(once)) == repr(once)


def test_open_loop_on_a_grid_names_its_first_open_point():
    s = Scenario(omega_a1=1.0, omega_a2=1.0, omega_c1=1.0, omega_c2=1.0, delta_a1=-1.0)
    # The defect -1 - delta_c2 closes the loop at delta_c2 = -1 only.
    with pytest.raises(ClosureError, match=r"delta_c2 = 1\.000e\+00$") as info:
        atom._closure(s, np.array([-1.0, -2.0, 0.0]))
    assert info.value.index == 1
    assert atom._closure(replace(s, omega_c2=0.0), np.array([-2.0, 0.0]))[0] == "delta_c2"


def test_completion_formulas():
    s = Scenario(delta_a1=1.0, delta_a2=2.0, delta_c1=3.0, delta_c2=4.0, closure_target="a1")
    assert closure_complete(s).delta_a1 == 2.0 + 4.0 - 3.0
    s = replace(s, closure_target="a2")
    assert closure_complete(s).delta_a2 == 1.0 + 3.0 - 4.0
    s = replace(s, closure_target="c1")
    assert closure_complete(s).delta_c1 == 2.0 + 4.0 - 1.0
    s = replace(s, closure_target="c2")
    assert closure_complete(s).delta_c2 == 1.0 + 3.0 - 2.0


def test_none_target_rejects_fully_driven_violation():
    s = Scenario(
        omega_a1=1.0,
        omega_a2=1.0,
        omega_c1=1.0,
        omega_c2=1.0,
        delta_a1=1.0,
        closure_target="none",
    )
    with pytest.raises(ClosureError):
        closure_complete(s)


def test_none_target_allows_inactive_field_mismatch():
    # a vanishing Rabi frequency makes its detuning a free frame parameter
    s = Scenario(omega_a1=0.0, omega_a2=1.0, omega_c1=1.0, omega_c2=1.0, delta_a1=3.0)
    assert closure_complete(s) == s


def test_hamiltonian_layout():
    s = Scenario(
        omega_a1=1.0,
        omega_a2=2.0,
        omega_c1=3.0,
        omega_c2=4.0,
        delta_a1=5.0,
        delta_a2=6.0,
        delta_c1=7.0,
    )
    expected = np.array(
        [
            [5.0, 1.0, 3.0, 0.0],
            [1.0, 0.0, 0.0, 2.0],
            [3.0, 0.0, 12.0, 4.0],
            [0.0, 2.0, 4.0, 6.0],
        ]
    )
    assert np.array_equal(build_hamiltonian(s), expected)


def test_hamiltonian_symmetric():
    b = build_hamiltonian(Scenario(omega_a1=1.5, omega_c2=0.3, delta_a2=-2.0))
    assert np.array_equal(b, b.T)


def test_probe_detuning_never_enters_hamiltonian():
    s = Scenario(omega_a1=1.0, omega_c2=2.0, delta_a1=0.5)
    assert np.array_equal(build_hamiltonian(s), build_hamiltonian(replace(s, delta_c2=9.0)))


def test_mirror_is_an_involution():
    s = Scenario(
        omega_a1=1.0,
        omega_a2=2.0,
        omega_c1=3.0,
        omega_c2=4.0,
        delta_a1=0.1,
        delta_a2=0.2,
        delta_c1=0.3,
        delta_c2=0.4,
        gamma1=1.1,
        gamma2=1.2,
        gamma3=1.3,
        gamma4=1.4,
        closure_target="a1",
    )
    assert mirror_scenario(mirror_scenario(s)) == s


def test_mirror_swaps_pairs():
    s = Scenario(omega_a1=1.0, omega_a2=2.0, omega_c1=3.0, omega_c2=4.0,
                 gamma1=0.5, gamma2=0.6, gamma3=0.7, gamma4=0.8, closure_target="c1")
    m = mirror_scenario(s)
    assert (m.omega_a1, m.omega_a2) == (2.0, 1.0)
    assert (m.omega_c1, m.omega_c2) == (4.0, 3.0)
    assert (m.gamma1, m.gamma2) == (0.6, 0.5)
    assert (m.gamma3, m.gamma4) == (0.8, 0.7)
    assert m.closure_target == "c2"


def test_mirror_conjugates_the_hamiltonian():
    rng = np.random.default_rng(5)
    p = MIRROR_PERMUTATION
    for _ in range(25):
        s = Scenario(
            omega_a1=rng.uniform(0, 5),
            omega_a2=rng.uniform(0, 5),
            omega_c1=rng.uniform(0, 5),
            omega_c2=rng.uniform(0, 5),
            delta_a1=rng.uniform(-3, 3),
            delta_a2=rng.uniform(-3, 3),
            delta_c1=rng.uniform(-3, 3),
            closure_target="c2",
        )
        s = closure_complete(s)
        left = p @ build_hamiltonian(s) @ p
        right = build_hamiltonian(mirror_scenario(s))
        assert np.max(np.abs(left - right)) < 1e-12


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(omega_a1=-1.0)
    with pytest.raises(ValueError):
        Scenario(gamma2=-0.5)
    with pytest.raises(ValueError):
        Scenario(delta_a1=float("nan"))
    with pytest.raises(ValueError):
        Scenario(omega_c2=float("inf"))
    with pytest.raises(ValueError):
        Scenario(closure_target="b7")


@pytest.mark.parametrize(
    "kwargs,field,fragment",
    [
        (dict(omega_a1=-1.0), "omega_a1", "omega_a1 must be non-negative, got -1.0"),
        (dict(gamma2=-0.5), "gamma2", "gamma2 must be non-negative"),
        (dict(delta_a1=float("nan")), "delta_a1", "delta_a1 must be finite"),
        (dict(omega_c2=float("inf")), "omega_c2", "omega_c2 must be finite"),
        (dict(gamma4=float("-inf")), "gamma4", "gamma4 must be finite"),
        (dict(omega_a2=10 * MAX_RATE), "omega_a2", "omega_a2 must be at most 1e+76"),
        (dict(omega_c1=1e300), "omega_c1", "must be at most"),
        (
            dict(closure_target="b7"),
            "closure_target",
            "closure_target must be one of a1, a2, c1, c2, none, got 'b7'",
        ),
        # numpy orders complex numbers, so no range comparison rejects them; an
        # int compares exactly at any size, and its echo is cut past 32 digits.
        (
            dict(delta_a2=np.complex128(1 + 2j), closure_target="a1"),
            "delta_a2",
            "delta_a2 must be a real number, got np.complex128(1+2j)",
        ),
        (
            dict(omega_c1=np.complex64(2.0)),
            "omega_c1",
            "omega_c1 must be a real number, got np.complex64(2+0j)",
        ),
        (
            dict(gamma3="x" * 40),
            "gamma3",
            "gamma3 must be a real number, got '" + "x" * 32 + "... (40 characters)'",
        ),
        (
            dict(delta_a2=10**400),
            "delta_a2",
            "delta_a2 must be at most 1e+76 in magnitude, got 1" + "0" * 31 + "... (401 digits)",
        ),
        (
            dict(omega_a1=-(10**400)),
            "omega_a1",
            "omega_a1 must be non-negative, got -1" + "0" * 31 + "... (401 digits)",
        ),
        (
            dict(gamma1=10**77),
            "gamma1",
            "gamma1 must be at most 1e+76 in magnitude, got 1" + "0" * 31 + "... (78 digits)",
        ),
        # A long double compares in its own type, past the double range too.
        (
            dict(delta_a1=np.longdouble("1e400")),
            "delta_a1",
            "delta_a1 must be at most 1e+76 in magnitude, got np.longdouble('1e+400')",
        ),
    ],
)
def test_scenario_rejections_name_their_field(kwargs, field, fragment):
    with pytest.raises(InputError) as info:
        Scenario(**kwargs)
    assert info.value.fields == (field,)
    assert fragment in str(info.value)


def test_rate_cap_itself_is_accepted_for_every_number():
    numbers = {name: MAX_RATE for name in SCENARIO_NUMBERS}
    assert Scenario(**numbers).omega_c2 == MAX_RATE
    assert Scenario(delta_a1=-MAX_RATE, delta_c2=-MAX_RATE).delta_a1 == -MAX_RATE


@pytest.mark.parametrize("name", SCENARIO_NUMBERS)
@pytest.mark.parametrize(
    "value", [10 * MAX_RATE, -10 * MAX_RATE, 1e308], ids=["10-caps", "minus-10-caps", "1e308"]
)
def test_every_number_past_the_cap_is_rejected(name, value):
    with pytest.raises(InputError) as info:
        Scenario(**{name: value})
    assert info.value.fields == (name,)
    rule = "non-negative" if value < 0.0 and not name.startswith("delta") else "at most 1e+76"
    assert f"{name} must be {rule}" in str(info.value)


@pytest.mark.parametrize("narrow", [np.float16, np.float32])
def test_narrow_numpy_floats_are_checked_in_double_precision(narrow):
    # The cap is no float16 or float32: checked in their own type it would
    # overflow, which the suite's warnings-as-errors turns into a raise.
    s = Scenario(delta_a2=narrow(0.1), omega_c2=narrow(2.5), closure_target="a1")
    assert (s.delta_a2, s.omega_c2) == (narrow(0.1), narrow(2.5))
    with pytest.raises(InputError, match="delta_a2 must be finite, got np.float") as info:
        Scenario(delta_a2=narrow("inf"), closure_target="a1")
    assert info.value.fields == ("delta_a2",)
    with pytest.raises(InputError, match="omega_c2 must be non-negative"):
        Scenario(omega_c2=narrow(-1.0))


def test_non_numeric_values_are_rejected_as_not_real():
    for value, shown in (("1.0", "'1.0'"), (None, "None"), (1 + 2j, "(1+2j)")):
        with pytest.raises(InputError) as info:
            Scenario(delta_a1=value)
        assert str(info.value) == f"delta_a1 must be a real number, got {shown}"
        assert info.value.fields == ("delta_a1",)


def test_in_range_integers_and_numpy_reals_are_accepted():
    s = Scenario(omega_a2=15, delta_a2=np.float64(-2.5), gamma1=np.int64(2), closure_target="a1")
    assert (s.omega_a2, s.delta_a2, s.gamma1) == (15, -2.5, 2)
    assert Scenario(delta_c1=-(10**70)).delta_c1 == -(10**70)


def test_the_first_bad_number_in_field_order_is_reported():
    with pytest.raises(InputError) as info:
        Scenario(gamma1=-1.0, delta_c1=1e300, omega_a2=float("nan"))
    assert info.value.fields == ("omega_a2",)
    with pytest.raises(InputError) as info:
        Scenario(gamma1=-1.0, delta_c1=1e300)
    assert info.value.fields == ("delta_c1",)


def test_closure_completion_past_the_cap_is_rejected():
    s = Scenario(delta_a2=MAX_RATE, delta_c2=MAX_RATE, delta_c1=-MAX_RATE, closure_target="a1")
    with pytest.raises(InputError) as info:
        closure_complete(s)
    assert info.value.fields == ("delta_a1",)
    assert "delta_a1 must be at most 1e+76 in magnitude, got 3e+76" in str(info.value)
