"""Closed-form drive eigenvalues, the oracle the dressed-state tests check against.

At zero detunings, with the probe coupling omega_c2 removed, the remaining
drive couplings form the open chain

    c --(omega_c1)-- a --(omega_a1)-- b --(omega_a2)-- d

whose eigenvalues have a closed form.  With

    S = omega_a1^2 + omega_c1^2 + omega_a2^2
    Z = S^2 - 4 omega_a2^2 omega_c1^2

the four eigenvalues are +-sqrt((S - sqrt(Z))/2) and +-sqrt((S + sqrt(Z))/2).
Their magnitudes multiply to omega_a2 * omega_c1, which is how the smaller
one is computed: S - sqrt(Z) cancels when the pairs are far apart.
Z factors as (omega_a1^2 + (omega_c1 - omega_a2)^2) *
(omega_a1^2 + (omega_c1 + omega_a2)^2), so Z >= 0 always and Z = 0 (a doubly
degenerate +- pair) occurs exactly when omega_a1 = 0 and omega_c1 = omega_a2.
Up to atom.MAX_RATE the factored Z is at most about 2.5e305, so it stays
finite.
"""

import numpy as np

from diamondsim.atom import Scenario
from diamondsim.errors import SimulationError


def closed_form_eigenvalues(s: Scenario) -> np.ndarray:
    """Drive-only eigenvalues from the closed form, ascending.

    Requires zero detunings and raises SimulationError otherwise.  The
    spectrum is symmetric about zero because the drive chain couples only
    {a, d} to {b, c}.
    """
    if s.delta_a1 != 0.0 or s.delta_a2 != 0.0 or s.delta_c1 != 0.0 or s.delta_c2 != 0.0:
        raise SimulationError("the dressed spectrum is defined at zero detunings only")
    oa1_sq = s.omega_a1 * s.omega_a1
    total = s.omega_a2 * s.omega_a2 + s.omega_c1 * s.omega_c1 + oa1_sq
    # Z in its factored form: no cancellation, never negative.
    discriminant = (oa1_sq + (s.omega_c1 - s.omega_a2) ** 2) * (
        oa1_sq + (s.omega_c1 + s.omega_a2) ** 2
    )
    root = np.sqrt(discriminant)
    high = np.sqrt((total + root) / 2.0)
    low = s.omega_a2 * s.omega_c1 / high if high > 0.0 else 0.0
    return np.array([-high, -low, low, high])
