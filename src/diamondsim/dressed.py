"""Dressed-state spectrum of the drive fields and dark-state classification.

At zero detunings, with the probe coupling omega_c2 removed, the remaining
drive couplings form the open chain

    c --(omega_c1)-- a --(omega_a1)-- b --(omega_a2)-- d

and herm_eigen diagonalizes it.  Eigenvalues within
1e-12 * (1 + max|eigenvalue|) form one degenerate group: herm_eigen splits
an exact degeneracy by at most about 6.6e-16 of that scale (60000 drives
with omega_a1 = 0 and omega_c1 = omega_a2, or with omega_a2 * omega_c1 = 0,
at scales from 1e-3 to 1e8), and omega_a1 = 1e5, omega_a2 = 1.3,
omega_c1 = 0.7 splits a real pair by 1.8e-10 of it.  Inside a group the
eigenvector columns are an arbitrary orthonormal basis of the eigenspace.

A dressed state with no amplitude on the top level |c> cannot absorb the
probe: it is dark.  Darkness inside a degenerate eigenvalue group is a
property of the subspace, not of any particular eigenvector basis, so the
classifier counts the c-free dimension of each group instead of inspecting
individual vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import herm_eigen
from .atom import LEVELS, Scenario, build_hamiltonian

__all__ = [
    "DarkReport",
    "DressedSpectrum",
    "dark_classification",
    "dressed_spectrum",
]

_C_INDEX = LEVELS.index("c")

#: Eigenvalues closer than 1e-12 * (1 + max|eigenvalue|) share a group.
_DEGENERACY_REL_TOL = 1e-12
#: A group's c-amplitude row below this norm counts as rank zero.
_C_RANK_TOL = 1e-10
#: Components within this relative distance of the largest magnitude tie for the phase pin.
_PIN_REL_TOL = 1e-8


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


def dressed_spectrum(s: Scenario) -> DressedSpectrum:
    """Numerically diagonalize the drive-only coupling matrix.

    Requires zero detunings and raises ValueError otherwise; the probe
    coupling omega_c2 is excluded.

    Each eigenvector's phase follows one sign convention: its lowest-index
    component whose magnitude is within a relative 1e-8 of the largest is
    made real and positive.  Components that tie in magnitude, as in
    (|x> + |y>)/sqrt(2), differ in the last bit from one rounding to the
    next, and the tolerance keeps that bit from choosing the sign.
    """
    if s.delta_a1 != 0.0 or s.delta_a2 != 0.0 or s.delta_c1 != 0.0 or s.delta_c2 != 0.0:
        raise ValueError("the dressed spectrum is defined at zero detunings only")
    drive = build_hamiltonian(replace(s, omega_c2=0.0))
    eig = herm_eigen(drive)
    # The phase pin on every column at once; a unit column's largest
    # magnitude is positive, so the division is safe.
    vectors = eig.eigenvectors
    mags = np.abs(vectors)
    lead = (mags >= (1.0 - _PIN_REL_TOL) * np.maximum.reduce(mags)).argmax(axis=0)
    columns = np.arange(len(mags))
    vectors *= vectors[lead, columns].conj() / mags[lead, columns]

    # A new group starts at each gap of at least tol between ascending
    # neighbours, so closer eigenvalues chain into one group.
    tol = _DEGENERACY_REL_TOL * (1.0 + float(np.max(np.abs(eig.eigenvalues))))
    bounds = [0, *(np.flatnonzero(np.diff(eig.eigenvalues) >= tol) + 1).tolist(), len(vectors)]
    return DressedSpectrum(
        eigenvalues=eig.eigenvalues,
        eigenvectors=vectors,
        groups=tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])),
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
