"""Exception hierarchy shared across the package: one class per exit code.

A failure while running raises one of the three classes below, and the CLI
maps each onto its exit code: ConfigError -> 2, NumericalError -> 3,
DataError -> 4. Config and argument checks (the config dataclasses and
their ``__post_init__``) raise ValueError; ``cli.build_pipeline_config``
turns that into ConfigError, so it exits 2. No other module defines an
exception class.
"""


class OptBiasError(Exception):
    """Base class for all package errors."""


class NumericalError(OptBiasError):
    """Linear algebra, optimization or task-generation failure, an inconsistent
    shape, or an unsupported bundle or checkpoint format."""


class DataError(OptBiasError):
    """Dataset loading, parsing, or schema failure."""


class ConfigError(OptBiasError):
    """Invalid configuration value or file."""
