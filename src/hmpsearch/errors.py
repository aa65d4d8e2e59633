"""Exception types shared across the package."""


class HmpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HmpError, ValueError):
    """An argument violates a documented precondition."""


class DecodeError(HmpError):
    """A file could not be read or parsed; the message names the path."""


class UnsupportedFormatError(DecodeError):
    """The file format is recognized as one this package does not handle."""


class DuplicateIdError(InvalidInputError):
    """An image id is given twice where ids must be unique, as in an index."""


class MissingQueryError(HmpError):
    """Ground-truth queries lack indexed descriptors."""

    def __init__(self, missing_ids):
        self.missing_ids = sorted(missing_ids)
        super().__init__(
            "no descriptor for %d query id(s): %s"
            % (len(self.missing_ids), ", ".join(self.missing_ids))
        )


class ConfigError(HmpError):
    """A run or architecture configuration is incomplete or inconsistent."""


class ImageTooSmallError(InvalidInputError):
    """The image cannot host a whole patch or coding unit of some layer."""
