"""Shared exception hierarchy.

The CLI maps these onto exit codes: ConfigError (and its subclasses) -> 2,
NumericalError -> 3, RegimeError -> 4.
"""


class CycleCapError(Exception):
    """Base class for all package errors."""


class ConfigError(CycleCapError):
    """Invalid model parameters, CLI arguments, or config files."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of an operation."""


class ConstraintError(ConfigError):
    """Argument violates a structural constraint (e.g. b > alpha, m > alpha)."""


class StructuralError(ConfigError):
    """Malformed domain object (non-bijective mapping, bad cycle type)."""


class DegenerateWeightsError(ConfigError):
    """Weight array with all q_j = 0."""


class SizeGuardError(ConfigError):
    """Request exceeds a hard size guard (brute force n > 12, an array past _BYTE_GUARD)."""


_BYTE_GUARD = 4_000_000_000  # bytes one table or sample matrix may take


class NumericalError(CycleCapError):
    """Root finder or DP failed to meet its residual/precision contract."""


class RegimeError(CycleCapError):
    """Operation refused because the model is outside the required regime."""
