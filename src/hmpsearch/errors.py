"""Exception types shared across the package."""


class HmpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(HmpError, ValueError):
    """An argument violates a documented precondition."""


class DecodeError(HmpError):
    """A file could not be read or parsed; the message names the path."""


class ConfigError(HmpError):
    """A run or architecture configuration is incomplete or inconsistent."""


class ImageTooSmallError(InvalidInputError):
    """The image cannot host a whole patch or coding unit of some layer."""
