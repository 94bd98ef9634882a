"""Shared exception types for rejected inputs and failed computations, and echo."""

import math

#: Longest text an error message repeats in full.
ECHO_MAX = 32


def echo(value, limit: int = ECHO_MAX):
    """A value as an error message repeats it.

    A str longer than limit (ECHO_MAX, 32, unless given) characters becomes
    its head and its length, an int of more digits its leading digits and
    digit count (without str(), which refuses ints past 4300 digits); anything
    else comes back unchanged.  So a message stays short whatever the input.
    """
    if isinstance(value, str) and len(value) > limit:
        return f"{value[:limit]}... ({len(value)} characters)"
    if isinstance(value, int) and abs(value) >= 10**limit:
        # bit_length * log10(2) gives the digit count or one more.
        digits = int(abs(value).bit_length() * math.log10(2)) + 1
        digits -= abs(value) < 10 ** (digits - 1)
        return f"{'-' * (value < 0)}{abs(value) // 10 ** (digits - limit)}... ({digits} digits)"
    return value


class InputError(ValueError):
    """An input value broke a rule of the constructor or function it was passed to.

    Scenario and SweepSpec raise it for their fields, evolve for t_final and
    dt, evolve_trajectory for those and samples.  The config parser reports
    it with the lowest line among the fields involved; the command line exits 1.

    Attributes:
        fields: names of the inputs the violated rule involves, in the
            spelling of the parameters: ("t_final", "dt") for the step cap.
    """

    def __init__(self, message: str, fields: tuple[str, ...]):
        super().__init__(message)
        self.fields = fields


class SimulationError(Exception):
    """A computation could not be completed for physical or numerical reasons.

    Subclasses identify the failing stage (singular linear system, broken
    loop closure, absent steady state, ...).  The command line maps any
    SimulationError to exit status 2; configuration and usage problems are
    reported separately with exit status 1.

    Attributes:
        index: the position of the first item that fails alone, where a
            stacked call names it (steady_state, check_density_matrix, the
            closure of a sweep grid); None otherwise (solve_linear).
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index
