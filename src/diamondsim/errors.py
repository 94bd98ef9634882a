"""Shared exception type for failures of the physics computations."""


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
