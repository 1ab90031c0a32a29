"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: ConfigurationError -> 2, input/format
errors -> 3, InternalError and anything else unexpected -> 4.
"""


class LearnedCacheError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(LearnedCacheError):
    """Invalid parameters or CLI arguments."""


class TraceFormatError(LearnedCacheError):
    """Malformed or corrupt trace file (bad magic, truncation, unsorted)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class FitError(LearnedCacheError):
    """Discretizer fitting failed (e.g. empty sample)."""


class SamplingError(LearnedCacheError):
    """Pair sampling is impossible (fewer than two distinct outcomes)."""


class SingleClassError(LearnedCacheError):
    """AUC requested for a sample containing only one class."""


class PackValidationError(LearnedCacheError):
    """Model pack violates its schema; message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class QuantizationError(LearnedCacheError):
    """Quantized weight is not finite, or the pack's score bound passes int64."""


class InternalError(LearnedCacheError):
    """Invariant violation inside the toolkit itself."""
