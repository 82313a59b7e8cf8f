"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value (unsupported order, bad dimensions, ...)."""


class NumericInputError(ValueError):
    """Non-finite or otherwise unusable numeric input."""


class MappingError(ValueError):
    """Symbol not on the constellation lattice."""


class FileFormatError(ValueError):
    """Malformed channel file."""


class DegenerateChannelError(ValueError):
    """Channel matrix unusable (all-zero, singular where inversion needed)."""


class CapacityError(RuntimeError):
    """A search or enumeration outgrew its fixed work bound.

    Raised when the ML sphere decoder visits more than ``ML_NODES``
    nodes, and when a diagnostic would enumerate more lattice states
    than its cap.
    """


class UsageError(ValueError):
    """Bad command-line or config-file usage."""
