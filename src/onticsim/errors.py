"""Exception hierarchy.

Two families matter to callers: configuration errors (bad inputs or
flags, CLI exit code 2) and numeric-invariant violations detected while
computing (CLI exit code 3).
"""


class OnticsimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(OnticsimError, ValueError):
    """Invalid argument, flag, or configuration value."""


class NumericViolation(OnticsimError, ArithmeticError):
    """A numeric invariant failed during a computation."""


class LengthMismatch(ConfigError):
    """Ontic vectors of different lengths were combined."""


class SizeMismatch(ConfigError):
    """A permutation was applied to an object of a different size."""


class DegenerateState(ConfigError):
    """The empty or full pattern cannot define a state."""


class InvalidCycle(ConfigError):
    """Cycle input reuses a point or leaves the valid range."""


class TrivialSubsystem(ConfigError):
    """The empty subsystem and the whole system cannot be reduced."""


class DimensionCap(ConfigError):
    """A dense matrix would exceed the configured dimension cap."""


class DomainError(ConfigError):
    """A scalar argument fell outside the function domain."""


class AlphaOne(DomainError):
    """Renyi order too close to 1; use the von Neumann entropy instead."""


class NotHermitian(NumericViolation):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class EmptyInput(ConfigError):
    """An aggregation was asked to summarize zero records."""
