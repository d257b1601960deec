"""Exception taxonomy shared across the package.

Two families matter to callers: configuration/input problems (bad config
files, invalid argument combinations) and numeric failures (consistency
violations detected at runtime).  The CLI maps them to exit codes 2 and 3.
"""

__all__ = [
    "ConfigError",
    "NumericError",
    "ConsistencyError",
    "MassMismatchError",
    "CorruptStateError",
]


class ConfigError(ValueError):
    """Invalid configuration or CLI input."""


class NumericError(RuntimeError):
    """Numeric consistency failure (tolerance violation, corrupt state)."""


class ConsistencyError(NumericError):
    """Input data violate a structural relation beyond tolerance."""


class MassMismatchError(NumericError):
    """Two measures that must share total mass do not."""


class CorruptStateError(NumericError):
    """An evolved state violates a structural invariant."""
