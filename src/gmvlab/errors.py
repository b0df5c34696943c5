"""The package's two error classes, under one base class, and `numerical_failures`,
the one rule that turns a floating-point overflow into a NumericalError.

The CLI maps them onto stable exit codes: InputError -> 1, NumericalError -> 2.
It also maps OSError to 1: a path that cannot be opened, read or written.
"""

import numpy as np


class GmvLabError(Exception):
    """Base class for all package errors."""


class InputError(GmvLabError):
    """Bad user-supplied data or arguments: shapes, ranges, file contents, config values."""


class NumericalError(GmvLabError):
    """Computation produced non-finite values or failed to converge."""


class numerical_failures:
    """Run numpy with overflow and invalid operations raised, so a blow-up is a
    `NumericalError("<what>: <cause>")` before numpy can warn.

    Used by `datagen`, `gmvae.model`, `ndmath`, `spectral`, `align` and `baselines`; only
    `gmvae.train.train` has its own handler, to name the epoch and stage.

    A class rather than a generator context manager: it costs about 1 us less
    per use, and the E-step uses it once per training batch.
    """

    def __init__(self, what: str):
        self.what = what
        self.errstate = np.errstate(over="raise", invalid="raise")

    def __enter__(self) -> None:
        self.errstate.__enter__()

    def __exit__(self, kind, error, traceback) -> None:
        self.errstate.__exit__(kind, error, traceback)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise NumericalError(f"{self.what}: {error}") from error
