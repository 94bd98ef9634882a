"""Dressed-state spectrum of the drive fields and dark-state classification.

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
Up to atom.MAX_RABI the factored Z is at most about 2.5e305, so it stays
finite.  Eigenvalues within 1e-12 * (1 + max|eigenvalue|) form one
degenerate group: herm_eigen splits an exact degeneracy by at most about
2.4e-16 of that scale, and omega_a1 = 1e5, omega_a2 = 1.3, omega_c1 = 0.7
splits a real pair by 1.8e-10 of it.

A dressed state with no amplitude on the top level |c> cannot absorb the
probe: it is dark.  Darkness inside a degenerate eigenvalue group is a
property of the subspace, not of any particular eigenvector basis, so the
classifier counts the c-free dimension of each group instead of inspecting
individual vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import herm_eigen
from .atom import Scenario, build_hamiltonian
from .errors import SimulationError

__all__ = [
    "DarkReport",
    "DressedSpectrum",
    "DriveInvariants",
    "closed_form_eigenvalues",
    "dark_classification",
    "dressed_spectrum",
    "drive_invariants",
]

_C_INDEX = 2

#: Eigenvalues closer than 1e-12 * (1 + max|eigenvalue|) share a group.
_DEGENERACY_REL_TOL = 1e-12
#: A group's c-amplitude row below this norm counts as rank zero.
_C_RANK_TOL = 1e-10
#: Numerical and closed-form eigenvalues agree within 1e-10 * (1 + max|eigenvalue|).
_CLOSED_FORM_REL_TOL = 1e-10


class DriveInvariants(NamedTuple):
    """Quadratic drive combinations that fix the dressed eigenvalues.

        total        = omega_a2^2 + omega_c1^2 + omega_a1^2
        discriminant = total^2 - 4 omega_a2^2 omega_c1^2
    """

    total: float
    discriminant: float


@dataclass(frozen=True)
class DressedSpectrum:
    """Eigensystem of the drive-only coupling matrix.

    groups partitions eigenvalue indices (ascending) into clusters that are
    degenerate within 1e-12 * (1 + max|eigenvalue|).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DarkReport:
    """Census of probe-dark directions in a dressed spectrum."""

    group_dark_dims: tuple[int, ...]
    total_dark: int
    degenerate: bool


def _require_zero_detunings(s: Scenario, where: str) -> None:
    if s.delta_a1 != 0.0 or s.delta_a2 != 0.0 or s.delta_c1 != 0.0 or s.delta_c2 != 0.0:
        raise SimulationError(f"{where} is defined at zero detunings only")


def drive_invariants(s: Scenario) -> DriveInvariants:
    """Quadratic invariants of the drive Rabi frequencies."""
    oa1_sq = s.omega_a1 * s.omega_a1
    oa2_sq = s.omega_a2 * s.omega_a2
    oc1_sq = s.omega_c1 * s.omega_c1
    # Factored form of total^2 - 4 oa2^2 oc1^2: exact cancellation-free non-negativity.
    discriminant = (oa1_sq + (s.omega_c1 - s.omega_a2) ** 2) * (
        oa1_sq + (s.omega_c1 + s.omega_a2) ** 2
    )
    return DriveInvariants(
        total=oa2_sq + oc1_sq + oa1_sq,
        discriminant=discriminant,
    )


def closed_form_eigenvalues(s: Scenario) -> np.ndarray:
    """Drive-only eigenvalues from the closed form, ascending.

    Requires zero detunings.  The spectrum is symmetric about zero because
    the drive chain couples only {a, d} to {b, c}.
    """
    _require_zero_detunings(s, "closed_form_eigenvalues")
    inv = drive_invariants(s)
    root = np.sqrt(inv.discriminant)
    high = np.sqrt((inv.total + root) / 2.0)
    low = s.omega_a2 * s.omega_c1 / high if high > 0.0 else 0.0
    return np.array([-high, -low, low, high])


def dressed_spectrum(s: Scenario) -> DressedSpectrum:
    """Numerically diagonalize the drive-only coupling matrix.

    Requires zero detunings; the probe coupling omega_c2 is excluded.  The
    numerical eigenvalues are cross-checked against closed_form_eigenvalues
    to 1e-10 * (1 + max|eigenvalue|) before returning.
    """
    _require_zero_detunings(s, "dressed_spectrum")
    drive = build_hamiltonian(s, exclude_probe=True)
    eig = herm_eigen(drive)
    reference = closed_form_eigenvalues(s)
    mismatch = float(np.max(np.abs(eig.eigenvalues - reference)))
    if mismatch > _CLOSED_FORM_REL_TOL * (1.0 + float(np.max(np.abs(eig.eigenvalues)))):
        raise RuntimeError(
            f"numerical eigenvalues deviate {mismatch:.3e} from the closed form; this is a bug"
        )

    tol = _DEGENERACY_REL_TOL * (1.0 + float(np.max(np.abs(eig.eigenvalues))))
    groups: list[tuple[int, ...]] = []
    current = [0]
    for k in range(1, len(eig.eigenvalues)):
        if eig.eigenvalues[k] - eig.eigenvalues[k - 1] < tol:
            current.append(k)
        else:
            groups.append(tuple(current))
            current = [k]
    groups.append(tuple(current))
    return DressedSpectrum(
        eigenvalues=eig.eigenvalues,
        eigenvectors=eig.eigenvectors,
        groups=tuple(groups),
    )


def dark_classification(spectrum: DressedSpectrum) -> DarkReport:
    """Count probe-dark directions per degenerate group.

    A group of dimension g spans a g-dimensional eigenspace; its dark
    dimension is g minus the rank of the row of c-amplitudes of its
    eigenvectors (rank threshold 1e-10), i.e. the dimension of the
    intersection with the subspace orthogonal to |c>.  Invariant under any
    unitary re-mixing of eigenvectors inside a group.
    """
    dims = []
    for group in spectrum.groups:
        c_row = spectrum.eigenvectors[_C_INDEX, list(group)]
        rank = 1 if float(np.linalg.norm(c_row)) > _C_RANK_TOL else 0
        dims.append(len(group) - rank)
    return DarkReport(
        group_dark_dims=tuple(dims),
        total_dark=int(sum(dims)),
        degenerate=any(len(group) > 1 for group in spectrum.groups),
    )
