"""The package's two error classes, under one base class.

The CLI maps them onto stable exit codes: InputError -> 1, NumericalError -> 2.
It also maps OSError to 1: a path that cannot be opened, read or written.
"""


class GmvLabError(Exception):
    """Base class for all package errors."""


class InputError(GmvLabError):
    """Bad user-supplied data or arguments: shapes, ranges, file contents, config values."""


class NumericalError(GmvLabError):
    """Computation produced non-finite values or failed to converge."""
