"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the physical or mathematical domain of an operation."""


class ConfigError(ValueError):
    """A config file or CLI option is malformed or names an unknown key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class FormatError(ValueError):
    """A data file violates its declared format.

    ``offset`` is the byte offset (for binary files) or line number (for text
    files) where the violation was detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class CorrectionWarning(UserWarning):
    """Background correction applied in a regime where it is unreliable."""


class ZeroSignalWarning(UserWarning):
    """An estimate was requested from data with no signal above background."""
