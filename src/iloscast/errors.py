"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes, so stages raise the most
specific class that applies instead of bare ValueError.
"""

from __future__ import annotations


class IloscastError(Exception):
    """Base class for all toolkit errors."""


class IngestError(IloscastError):
    """Raised for unreadable or malformed telemetry input."""


class SchemaError(IloscastError):
    """Raised when data does not fit the feature schema it is paired with."""


class IndicatorError(SchemaError):
    """Raised when the numeric features lack a requested protocol indicator."""


class SplitError(IloscastError):
    """Raised when a chronological split cannot be formed."""


class DataError(IloscastError):
    """Raised for structurally invalid samples or datasets."""


class ConfigError(IloscastError):
    """Raised for invalid run configuration (CLI exit code 2)."""


class MissingArtifactError(IloscastError):
    """Raised when a stage needs an artifact a prior stage has not produced
    (CLI exit code 3)."""


class NumericError(IloscastError):
    """Raised when training or evaluation hits non-finite numbers
    (CLI exit code 4)."""
