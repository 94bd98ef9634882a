"""Shared exception types: rejected inputs and failed physics computations."""

#: Longest text an error message repeats in full.
ECHO_MAX = 32


def echo(value):
    """A value as an error message repeats it.

    A str longer than ECHO_MAX (32) characters becomes its head and its
    length, so a message stays short whatever the input; anything else
    comes back unchanged.
    """
    if not isinstance(value, str) or len(value) <= ECHO_MAX:
        return value
    return f"{value[:ECHO_MAX]}... ({len(value)} characters)"


class InputError(ValueError):
    """A constructor rejected an input value.

    Scenario and SweepSpec own every range rule on their fields and raise
    this type.  The config parser reports it with the lowest line among the
    fields involved; the command line exits 1 for it.

    Attributes:
        fields: names of the inputs the violated rule involves, in the
            spelling of the constructor's parameters.
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
        index: for a call on a stack of inputs, the position of the failing
            item (the lowest one, when several fail); None otherwise.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index
