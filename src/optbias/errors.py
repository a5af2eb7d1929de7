"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
DataError -> 4.
"""


class OptBiasError(Exception):
    """Base class for all package errors."""


class NumericalError(OptBiasError):
    """Linear algebra or optimization failure."""


class DataError(OptBiasError):
    """Dataset loading, parsing, or schema failure."""


class ConfigError(OptBiasError):
    """Invalid configuration value or file."""


class DimensionMismatch(NumericalError):
    """Inputs whose feature dimension disagrees with a model's."""


class ShapeMismatch(NumericalError):
    """Arrays whose shapes disagree."""
