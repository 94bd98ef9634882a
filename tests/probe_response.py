"""The first-order probe response, split by the part of rho0 it comes from.

With the probe field omega_c2 on the c-d transition, L = L0 + omega_c2 L_p
bit for bit, so the steady state's slope at omega_c2 = 0 is the trace-0
rho1 that solves L0 rho1 = -L_p rho0, rho0 being L0's steady state.  The
drive -L_p rho0 is linear in rho0, so rho1 splits into the response to
rho0's populations (its diagonal) and the response to its coherences (the
rest).  The first is what a two-level probe of those populations sees:
absorption where the lower level d holds more than the upper level c.  The
second is the part that coherences driven by the other fields add, as in
gain without inversion (Harris, Phys. Rev. Lett. 62, 1033 (1989)).
Im rho1_cd > 0 is absorption.
"""

from dataclasses import replace

import numpy as np

from diamondsim.atom import Scenario, closure_complete
from diamondsim.lindblad import build_liouvillian, steady_state

_PROBE = np.zeros((4, 4))
_PROBE[2, 3] = _PROBE[3, 2] = 1.0
#: L_p, the probe's part of L per unit omega_c2: vec of +i[B_p, rho] for
#: B_p = |c><d| + |d><c|, built with np.kron apart from build_liouvillian.
PROBE_GENERATOR = 1j * (np.kron(_PROBE, np.eye(4)) - np.kron(np.eye(4), _PROBE.T))
#: Positions of the populations in vec(rho).
POPULATIONS = [0, 5, 10, 15]


def probe_response_terms(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """rho1 of closure_complete(s) as (population term, coherence term), two 4x4 arrays.

    The terms sum to rho1.  Each solves L0 x = -L_p part with trace 0 by
    np.linalg.solve, with the trace condition in row 0 as the population
    rows of L0 are linearly dependent.
    """
    base = build_liouvillian(replace(closure_complete(s), omega_c2=0.0))
    rho0 = steady_state(base).reshape(16)
    populations = np.zeros_like(rho0)
    populations[POPULATIONS] = rho0[POPULATIONS]
    system = base.copy()
    system[0] = 0.0
    system[0, POPULATIONS] = 1.0
    drives = -(PROBE_GENERATOR @ np.column_stack([populations, rho0 - populations]))
    drives[0] = 0.0
    terms = np.linalg.solve(system, drives)
    return terms[:, 0].reshape(4, 4), terms[:, 1].reshape(4, 4)
