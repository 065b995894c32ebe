"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit
with 1, data and file-format problems with 2, numeric failures with 3.
"""


class MVFAError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(MVFAError):
    """Operand shapes do not conform for the attempted operation."""


class ContractError(MVFAError):
    """An API was called outside its contract (wrong rank, missing grad, ...)."""


class ConfigError(MVFAError):
    """A configuration value is invalid or inconsistent."""


class NormalizationError(MVFAError):
    """A row with zero norm cannot be normalized."""


class PromptError(MVFAError):
    """A prompt pattern or expansion is malformed."""


class FormatError(MVFAError):
    """A binary or text file does not match its expected format."""


class ManifestError(MVFAError):
    """A dataset manifest line is malformed or inconsistent."""


class DataError(MVFAError):
    """A dataset or split request cannot be satisfied."""


class BankError(MVFAError):
    """The memory bank is missing, empty, or does not fit the features."""


class MetricError(MVFAError):
    """A metric is undefined for the given inputs."""


class NumericError(MVFAError):
    """A computation produced non-finite values."""
