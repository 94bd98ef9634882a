"""Exact steady states, the oracle that returned steady states are checked against.

steady_state replaces row 0 of the 16x16 generator L, the (a, a) population's
row, by the trace condition and solves that system in doubles.  The oracle
solves the same system, built from the same double L, by mpmath's LU
factorization at 40 significant digits.  Every double converts to mpmath
exactly, so the only rounding is the solve's own, far below the 1e-9 a
returned state is held to.
"""

import mpmath
import numpy as np

DIGITS = 40
# vec(rho) positions of the populations, row-major: (i, i) -> 5*i.
_POPULATIONS = (0, 5, 10, 15)


def exact_steady_state(liouv: np.ndarray) -> np.ndarray:
    """The solution of L's row-0 trace-replaced system as a 4x4 complex128 matrix."""
    with mpmath.workdps(DIGITS):
        rows = [[mpmath.mpc(complex(value)) for value in row] for row in np.asarray(liouv)]
        rows[0] = [mpmath.mpc(k in _POPULATIONS) for k in range(16)]
        rhs = mpmath.matrix([1] + [0] * 15)
        solution = mpmath.lu_solve(mpmath.matrix(rows), rhs)
        return np.array([complex(solution[k]) for k in range(16)]).reshape(4, 4)
