"""Physical data model of the four-level closed-loop (diamond) atom.

Levels, in basis order (a, b, c, d): |b> is the ground state, |c> the top
state, |a> and |d> sit in between.  Dipole-allowed transitions form the
closed loop b-a-c-d-b, driven by four coherent fields:

    omega_a1 on b <-> a        omega_c1 on a <-> c
    omega_a2 on b <-> d        omega_c2 on d <-> c   (probe transition)

Detunings delta_* pair with the like-named Rabi frequencies; decay runs down
the loop as c -> a (gamma1), c -> d (gamma2), a -> b (gamma3), d -> b
(gamma4).  Every rate is expressed in units of one reference decay rate, so
all Scenario numbers are dimensionless.

In the rotating frame the coherent dynamics is generated by the real
symmetric matrix B of build_hamiltonian through drho/dt = +i[B, rho]
(equivalently H = -hbar B).  A single time-independent frame for the whole
loop exists only when the detunings satisfy the closure condition

    delta_a1 + delta_c1 = delta_a2 + delta_c2.

When a field is inactive (zero Rabi frequency) its detuning is not a
physical quantity but a free frame parameter.  closure_complete exploits
that freedom: it overwrites the detuning named by closure_target so the
closure condition holds, which is how a probe-detuning scan is absorbed
into the frame of an inactive field.  This completion rule is a convention
of this package, chosen so the probe coherence rho_cd oscillates at the
probe detuning.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InputError, SimulationError, echo

__all__ = [
    "CLOSURE_TARGETS",
    "ClosureError",
    "LEVELS",
    "MAX_RATE",
    "Scenario",
    "build_hamiltonian",
    "closure_complete",
]

LEVELS = ("a", "b", "c", "d")
CLOSURE_TARGETS = ("a1", "a2", "c1", "c2", "none")

_CLOSURE_TOL = 1e-9
_OPEN_LOOP = (
    "time-dependent Hamiltonian unsupported: all four fields are active and "
    "delta_a1 + delta_c1 - delta_a2 - delta_c2 = {:.3e}"
)

#: Largest magnitude of any Scenario number and sweep edge.  At 1e76 the
#: closed-form drive eigenvalues that the dressed-state tests check against
#: stay finite on all 64 drive patterns with each of omega_a1, omega_a2,
#: omega_c1 in {0, 1, w/2, w}, as a test pins; at 1e77 eight overflow.
#: Under it the sums in B, L and the closure condition stay finite, and a
#: detuning closure_complete derives past it (up to 3e76) is rejected.
MAX_RATE = 1e76

#: Most states one call returns (sweep points, trajectory samples): 256 MB of them.
MAX_POINTS = 10**6


def _check_numbers(values, names) -> None:
    """The number rule: raise errors.InputError naming the first number in values that breaks it.

    values maps names to numbers (a Scenario's or SweepSpec's vars, evolve's
    t_final and dt); names lists (name, signed) pairs in order.  A number is
    real, finite, at most MAX_RATE in magnitude and, unless signed, non-negative.
    Integers and fractions compare exactly at any size, doubles and long doubles
    in their own type, other reals as doubles (a float16 would overflow on the cap).
    """
    low, high = -MAX_RATE, MAX_RATE
    for name, signed in names:
        value = values[name]
        # One chained test passes a Python float in range; the rest take the rule.
        if value.__class__ is float and low <= value <= high and (value >= 0.0 or signed):
            continue
        real = isinstance(value, numbers.Real)
        exact = isinstance(value, (numbers.Rational, float, np.longdouble))
        number = value if exact or not real else float(value)
        if not real:
            rule = "be a real number"
        elif not -math.inf < number < math.inf:
            rule = "be finite"
        elif number < 0.0 and not signed:
            rule = "be non-negative"
        elif abs(number) > MAX_RATE:
            rule = f"be at most {MAX_RATE:g} in magnitude"
        else:
            continue
        shown = echo(value) if isinstance(value, int) else repr(echo(value))
        raise InputError(f"{name} must {rule}, got {shown}", (name,))


def _check_count(name: str, value, low: int) -> None:
    """The count rule: an integer in [low, MAX_POINTS], else errors.InputError naming name."""
    if not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {echo(value)!r}", (name,))
    if not low <= value <= MAX_POINTS:
        bound = f"at least {low}" if value < low else f"at most {MAX_POINTS}"
        raise InputError(f"{name} must be {bound}, got {echo(value)}", (name,))


class ClosureError(SimulationError):
    """The four active fields do not admit a time-independent rotating frame."""


@dataclass(frozen=True)
class Scenario:
    """Complete dimensionless parameter set for one run.

    Every number must be real, finite and at most MAX_RATE (1e76) in
    magnitude, and Rabi frequencies and decay rates non-negative, the rule
    SweepSpec's edges keep too; the first value in field order that breaks
    it raises errors.InputError naming that field alone.  closure_target
    names the detuning closure_complete may overwrite ("none" forbids it
    and demands that a fully driven loop already satisfies closure).
    """

    omega_a1: float = 0.0
    omega_a2: float = 0.0
    omega_c1: float = 0.0
    omega_c2: float = 0.0
    delta_a1: float = 0.0
    delta_a2: float = 0.0
    delta_c1: float = 0.0
    delta_c2: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0
    gamma4: float = 1.0
    closure_target: str = "none"

    def __post_init__(self):
        _check_numbers(vars(self), _NUMBER_FIELDS)
        if self.closure_target not in CLOSURE_TARGETS:
            raise InputError(
                f"closure_target must be one of {', '.join(CLOSURE_TARGETS)}, "
                f"got {echo(self.closure_target)!r}",
                ("closure_target",),
            )


#: Scenario's numbers in field order, each with whether it may be negative.
_NUMBER_FIELDS = tuple(
    (f.name, f.name[0] == "d") for f in fields(Scenario) if f.name != "closure_target"
)


def _closure(s: Scenario, delta_c2):
    """Closure completion's arithmetic at probe detuning(s) delta_c2.

    A float or an ndarray runs the same float operations in the same order.
    Returns the field closure_target overwrites and its completed value;
    "none" keeps delta_c2, but a fully driven loop left open there raises
    ClosureError, for an array at its first open point, with that point's
    position as `index`.
    """
    target = s.closure_target
    if target == "a1":
        return "delta_a1", s.delta_a2 + delta_c2 - s.delta_c1
    if target == "a2":
        return "delta_a2", s.delta_a1 + s.delta_c1 - delta_c2
    if target == "c1":
        return "delta_c1", s.delta_a2 + delta_c2 - s.delta_a1
    if target == "c2":
        return "delta_c2", s.delta_a1 + s.delta_c1 - s.delta_a2
    defect = s.delta_a1 + s.delta_c1 - s.delta_a2 - delta_c2
    drives = min(s.omega_a1, s.omega_a2, s.omega_c1, s.omega_c2) > 0.0
    open_loop = drives and abs(defect) >= _CLOSURE_TOL
    if np.any(open_loop):
        index = int(np.argmax(open_loop)) if np.ndim(open_loop) else None
        shown = defect if index is None else defect[index]
        raise ClosureError(_OPEN_LOOP.format(shown), index=index)
    return "delta_c2", delta_c2


def closure_complete(s: Scenario) -> Scenario:
    """Return a Scenario whose detunings satisfy the closure condition.

    The detuning named by closure_target is overwritten with the value the
    other three impose.  With closure_target "none" the detunings are kept,
    but a fully driven loop (all four Rabi frequencies > 0) that violates
    closure raises ClosureError: such a configuration would need a
    time-dependent Hamiltonian, which this package does not model.
    Idempotent: completing a completed Scenario reproduces it bit for bit.
    """
    name, value = _closure(s, s.delta_c2)
    return replace(s, **{name: value})


def build_hamiltonian(s: Scenario) -> np.ndarray:
    """Rotating-frame coupling matrix B in basis order (a, b, c, d).

    B is real symmetric and generates the coherent part of the dynamics via
    drho/dt = +i[B, rho].  The caller is expected to pass a
    closure-completed Scenario; note that delta_c2 never appears in B, so
    probe scans only act through closure completion.
    """
    # One flat list, four entries a row.
    return np.array([
        s.delta_a1, s.omega_a1, s.omega_c1, 0.0,
        s.omega_a1, 0.0, 0.0, s.omega_a2,
        s.omega_c1, 0.0, s.delta_a1 + s.delta_c1, s.omega_c2,
        0.0, s.omega_a2, s.omega_c2, s.delta_a2,
    ]).reshape(4, 4)

