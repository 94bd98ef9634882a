"""Element-by-element master-equation derivative, the tests' oracle for L.

eom_rhs writes the derivative of build_liouvillian's master equation out
element by element.  It is kept as an independent route through the physics
and is the oracle for the superoperator assembly: the two must agree to
machine precision, which test_lindblad and acceptance criterion 1 enforce.
"""

import numpy as np

from diamondsim.atom import Scenario

_A, _B, _C, _D = 0, 1, 2, 3


def eom_rhs(s: Scenario, rho: np.ndarray) -> np.ndarray:
    """Element-by-element master-equation derivative for a Hermitian state.

    The populations and the six upper-triangle coherences are written out
    term by term; the lower triangle follows from conjugate symmetry.  For a
    closure-completed Scenario the result equals (L @ rho.reshape(16)).reshape(4, 4)
    with L from build_liouvillian, and the tests hold the two routes to 1e-12.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    oa1, oa2 = s.omega_a1, s.omega_a2
    oc1, oc2 = s.omega_c1, s.omega_c2
    da1, da2, dc1 = s.delta_a1, s.delta_a2, s.delta_c1
    g1, g2, g3, g4 = s.gamma1, s.gamma2, s.gamma3, s.gamma4
    r = rho
    out = np.zeros((4, 4), dtype=np.complex128)

    out[_A, _A] = (
        -g3 * r[_A, _A]
        + g1 * r[_C, _C]
        + 1j * oa1 * (r[_B, _A] - r[_A, _B])
        + 1j * oc1 * (r[_C, _A] - r[_A, _C])
    )
    out[_B, _B] = (
        g3 * r[_A, _A]
        + g4 * r[_D, _D]
        + 1j * oa1 * (r[_A, _B] - r[_B, _A])
        + 1j * oa2 * (r[_D, _B] - r[_B, _D])
    )
    out[_C, _C] = (
        -(g1 + g2) * r[_C, _C]
        + 1j * oc1 * (r[_A, _C] - r[_C, _A])
        + 1j * oc2 * (r[_D, _C] - r[_C, _D])
    )
    out[_D, _D] = (
        g2 * r[_C, _C]
        - g4 * r[_D, _D]
        + 1j * oa2 * (r[_B, _D] - r[_D, _B])
        + 1j * oc2 * (r[_C, _D] - r[_D, _C])
    )

    out[_A, _B] = (
        (1j * da1 - 0.5 * g3) * r[_A, _B]
        + 1j * oa1 * (r[_B, _B] - r[_A, _A])
        - 1j * oa2 * r[_A, _D]
        + 1j * oc1 * r[_C, _B]
    )
    out[_A, _C] = (
        -(1j * dc1 + 0.5 * (g1 + g2 + g3)) * r[_A, _C]
        + 1j * oc1 * (r[_C, _C] - r[_A, _A])
        - 1j * oc2 * r[_A, _D]
        + 1j * oa1 * r[_B, _C]
    )
    out[_A, _D] = (
        (1j * (da1 - da2) - 0.5 * (g3 + g4)) * r[_A, _D]
        - 1j * oa2 * r[_A, _B]
        - 1j * oc2 * r[_A, _C]
        + 1j * oa1 * r[_B, _D]
        + 1j * oc1 * r[_C, _D]
    )
    out[_B, _C] = (
        -(1j * (dc1 + da1) + 0.5 * (g1 + g2)) * r[_B, _C]
        - 1j * oc1 * r[_B, _A]
        + 1j * oa1 * r[_A, _C]
        + 1j * oa2 * r[_D, _C]
        - 1j * oc2 * r[_B, _D]
    )
    out[_B, _D] = (
        -(1j * da2 + 0.5 * g4) * r[_B, _D]
        - 1j * oa2 * (r[_B, _B] - r[_D, _D])
        + 1j * oa1 * r[_A, _D]
        - 1j * oc2 * r[_B, _C]
    )
    out[_C, _D] = (
        (1j * (da1 + dc1 - da2) - 0.5 * (g1 + g2 + g4)) * r[_C, _D]
        - 1j * oc2 * (r[_C, _C] - r[_D, _D])
        + 1j * oc1 * r[_A, _D]
        - 1j * oa2 * r[_C, _B]
    )

    for i in range(4):
        for j in range(i + 1, 4):
            out[j, i] = out[i, j].conjugate()
    return out
