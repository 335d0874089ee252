"""Exception hierarchy shared across the package."""


class SimulationError(Exception):
    """Base class for solver and model failures."""


class ConfigError(SimulationError):
    """Invalid or inconsistent configuration input."""


class ConvergenceError(SimulationError):
    """A solver could not reach or certify its answer."""


class InfeasibleBudgetError(SimulationError):
    """The RIS power budget cannot be met even at the lower amplitude bounds."""


class CircuitError(SimulationError):
    """Base class for unit-cell circuit model failures."""


class PhaseNotRealizableError(CircuitError):
    """The requested reflection phase lies outside the realizable locus."""
