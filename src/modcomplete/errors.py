"""Common exception base for the package."""


class ModcompleteError(Exception):
    """Base class for every error raised by this package."""
