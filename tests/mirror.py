"""The a <-> d mirror of the diamond, the tests' map of its symmetry.

Exchanging levels a and d maps the loop onto itself with the fields and
decay channels of its two arms swapped.  mirror_scenario is that swap on a
Scenario and MIRROR_PERMUTATION the level exchange; test_atom and
acceptance criterion 11 hold the coupling matrix and the steady state to
it.  Test-only code; the package never imports it.
"""

import numpy as np

from diamondsim.atom import Scenario

#: Permutation exchanging levels a and d; conjugating by it mirrors the loop.
MIRROR_PERMUTATION = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)

_MIRROR_TARGET = {"a1": "a2", "a2": "a1", "c1": "c2", "c2": "c1", "none": "none"}


def mirror_scenario(s: Scenario) -> Scenario:
    """Parameter swap matching the a <-> d level exchange.

    Swaps omega_a1 <-> omega_a2, omega_c1 <-> omega_c2, the like-named
    detunings, gamma1 <-> gamma2, and gamma3 <-> gamma4 (closure_target is
    remapped to the swapped slot).  Conjugating by MIRROR_PERMUTATION turns
    the coupling matrix of a closure-satisfying Scenario into the coupling
    matrix of its mirror, and the steady state transforms the same way.
    """
    return Scenario(
        omega_a1=s.omega_a2,
        omega_a2=s.omega_a1,
        omega_c1=s.omega_c2,
        omega_c2=s.omega_c1,
        delta_a1=s.delta_a2,
        delta_a2=s.delta_a1,
        delta_c1=s.delta_c2,
        delta_c2=s.delta_c1,
        gamma1=s.gamma2,
        gamma2=s.gamma1,
        gamma3=s.gamma4,
        gamma4=s.gamma3,
        closure_target=_MIRROR_TARGET[s.closure_target],
    )
