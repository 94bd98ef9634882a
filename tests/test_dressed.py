"""Tests for the drive-only eigensystem and the dark-state census."""

import math

import numpy as np
import pytest

from diamondsim.atom import MAX_RABI, Scenario, build_hamiltonian
from diamondsim.dressed import (
    DarkReport,
    DressedSpectrum,
    closed_form_eigenvalues,
    dark_classification,
    dressed_spectrum,
    drive_invariants,
)
from diamondsim.errors import SimulationError


def drive_scenario(oa1, oc1, oa2):
    return Scenario(omega_a1=oa1, omega_c1=oc1, omega_a2=oa2, omega_c2=1.0)


def test_closed_form_matches_numpy_eigvalsh():
    rng = np.random.default_rng(314)
    for _ in range(200):
        s = drive_scenario(*rng.uniform(0.0, 20.0, 3))
        reference = np.linalg.eigvalsh(build_hamiltonian(s, exclude_probe=True))
        assert np.max(np.abs(closed_form_eigenvalues(s) - reference)) < 1e-10


def test_closed_form_check_holds_from_weak_to_strong_drives():
    # The small pair once came from (S - sqrt(Z)) / 2, which cancels at
    # large drives, and the cross-check was absolute; both raised on valid
    # drives such as this one.
    dressed_spectrum(Scenario(omega_a1=793.90666874, omega_a2=1.35717288, omega_c1=79.22734692))
    rng = np.random.default_rng(2718)
    for scale in 10.0 ** np.arange(-3, 8):
        for _ in range(100):
            drives = scale * rng.uniform(0.0, 1.0, 3) * (rng.uniform(size=3) > 0.2)
            s = drive_scenario(*drives)
            values = dressed_spectrum(s).eigenvalues
            reference = np.linalg.eigvalsh(build_hamiltonian(s, exclude_probe=True))
            bound = 1e-14 * (1.0 + np.max(np.abs(reference)))
            assert np.max(np.abs(closed_form_eigenvalues(s) - reference)) < bound
            assert np.max(np.abs(values - reference)) < bound


def test_closed_form_block_spectrum():
    # omega_a1 = 0 splits the chain into two 2x2 blocks
    s = drive_scenario(0.0, 10.0, 15.0)
    assert np.allclose(closed_form_eigenvalues(s), [-15.0, -10.0, 10.0, 15.0], atol=1e-12)


def test_closed_form_golden_ratio_at_unit_drives():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    s = drive_scenario(1.0, 1.0, 1.0)
    assert np.allclose(
        closed_form_eigenvalues(s), [-phi, -1.0 / phi, 1.0 / phi, phi], atol=1e-12
    )


def test_spectrum_symmetric_about_zero():
    rng = np.random.default_rng(9)
    for _ in range(50):
        values = closed_form_eigenvalues(drive_scenario(*rng.uniform(0.0, 12.0, 3)))
        assert np.max(np.abs(values + values[::-1])) < 1e-10


def test_requires_zero_detunings():
    s = Scenario(omega_c1=1.0, delta_a1=0.5)
    with pytest.raises(SimulationError):
        closed_form_eigenvalues(s)
    with pytest.raises(SimulationError):
        dressed_spectrum(s)


def test_drive_invariants_consistent():
    rng = np.random.default_rng(27)
    for _ in range(100):
        oa1, oc1, oa2 = rng.uniform(0.0, 20.0, 3)
        inv = drive_invariants(drive_scenario(oa1, oc1, oa2))
        assert inv.total == pytest.approx(oa1**2 + oc1**2 + oa2**2, rel=1e-12)
        assert inv.discriminant == pytest.approx(
            inv.total**2 - 4.0 * oa2**2 * oc1**2, rel=1e-9, abs=1e-6
        )
        assert inv.discriminant >= 0.0


def test_discriminant_nonnegative_even_when_balanced():
    # oa1 = 0 with oc1 = oa2 makes the naive subtraction cancel exactly
    inv = drive_invariants(drive_scenario(0.0, 7.3, 7.3))
    assert inv.discriminant >= 0.0
    assert inv.discriminant == pytest.approx(0.0, abs=1e-9)


def test_grouping_of_degenerate_pair():
    spectrum = dressed_spectrum(drive_scenario(0.1, 5.0, 0.0))
    assert spectrum.groups == ((0,), (1, 2), (3,))


def test_spectrum_deterministic():
    first = dressed_spectrum(drive_scenario(2.0, 3.0, 4.0))
    second = dressed_spectrum(drive_scenario(2.0, 3.0, 4.0))
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def brute_force_census(s):
    """Independent dark count: numpy eigensystem plus rank of the c row."""
    drive = build_hamiltonian(s, exclude_probe=True)
    values, vectors = np.linalg.eigh(drive)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(values))))
    groups = [[0]]
    for k in range(1, 4):
        if values[k] - values[k - 1] < tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    dims = []
    for group in groups:
        c_row = vectors[2, group].reshape(1, -1)
        dims.append(len(group) - int(np.linalg.matrix_rank(c_row, tol=1e-10)))
    return tuple(dims)


CENSUS_CASES = [
    # (oa1, oc1, oa2) -> per-group dark dimensions, total, degenerate flag
    ((0.0, 10.0, 15.0), (1, 0, 0, 1), 2, False),
    ((2.0, 3.0, 4.0), (0, 0, 0, 0), 0, False),
    ((0.1, 5.0, 0.0), (0, 1, 0), 1, True),
    ((0.1, 0.0, 10.0), (1, 1, 1), 3, True),
]


@pytest.mark.parametrize("drives,dims,total,degenerate", CENSUS_CASES)
def test_dark_census(drives, dims, total, degenerate):
    s = drive_scenario(*drives)
    report = dark_classification(dressed_spectrum(s))
    assert isinstance(report, DarkReport)
    assert report.group_dark_dims == dims
    assert report.total_dark == total
    assert report.degenerate is degenerate
    assert brute_force_census(s) == dims


def test_census_invariant_under_degenerate_remixing():
    spectrum = dressed_spectrum(drive_scenario(0.1, 5.0, 0.0))
    before = dark_classification(spectrum)
    c, z = math.cos(0.6), math.sin(0.6) * np.exp(0.4j)
    mixer = np.array([[c, -z.conjugate()], [z, c]])
    vectors = spectrum.eigenvectors.copy()
    vectors[:, 1:3] = vectors[:, 1:3] @ mixer
    remixed = DressedSpectrum(
        eigenvalues=spectrum.eigenvalues, eigenvectors=vectors, groups=spectrum.groups
    )
    assert dark_classification(remixed) == before


def test_dressed_spectrum_holds_up_to_the_rabi_cap():
    # Every drive pattern with each Rabi frequency in {0, 1, w/2, w}: the
    # closed-form cross-check must pass at w = MAX_RABI, the cap Scenario
    # enforces; at 10 * MAX_RABI some patterns overflow.
    levels = (0.0, 1.0, MAX_RABI / 2, MAX_RABI)
    for oa1 in levels:
        for oa2 in levels:
            for oc1 in levels:
                s = Scenario(omega_a1=oa1, omega_a2=oa2, omega_c1=oc1)
                spectrum = dressed_spectrum(s)
                top = np.max(np.abs(spectrum.eigenvalues))
                assert math.isfinite(top)
                assert np.max(np.abs(spectrum.eigenvalues - closed_form_eigenvalues(s))) <= (
                    1e-10 * (1.0 + top)
                )


def test_widely_split_pair_is_not_grouped():
    # The small pair of this drive is split by 1.8e-10 * (1 + max|eigenvalue|),
    # far above the split rounding leaves in an exact degeneracy.
    s = Scenario(omega_a1=1e5, omega_a2=1.3, omega_c1=0.7)
    values, vectors = np.linalg.eigh(build_hamiltonian(s, exclude_probe=True))
    assert np.all(np.diff(values) > 0.0)
    assert np.all(np.abs(vectors[2]) > 1e-6)
    spectrum = dressed_spectrum(s)
    assert spectrum.groups == ((0,), (1,), (2,), (3,))
    assert np.all(np.abs(spectrum.eigenvectors[2]) > 1e-6)
    assert dark_classification(spectrum) == DarkReport((0, 0, 0, 0), 0, False)


def test_exact_degeneracies_group_from_weak_to_strong_drives():
    # omega_a1 = 0 with omega_c1 = omega_a2 doubles both +- values; a zero
    # omega_a2 or omega_c1 doubles the zero eigenvalue.
    rng = np.random.default_rng(20081004)
    for scale in 10.0 ** np.arange(-3, 9):
        for _ in range(20):
            w, v = rng.uniform(0.1, 1.0, 2) * scale
            balanced = dressed_spectrum(Scenario(omega_a2=w, omega_c1=w))
            assert balanced.groups == ((0, 1), (2, 3)), (scale, w)
            for s in (Scenario(omega_a1=w, omega_c1=v), Scenario(omega_a1=w, omega_a2=v)):
                assert dressed_spectrum(s).groups == ((0,), (1, 2), (3,)), (scale, s)
