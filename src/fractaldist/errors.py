"""Exception types shared across the package."""


class FractalDistError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(FractalDistError, ValueError):
    """An unsupported generator kind or parameter was requested."""


class SpecValidationError(FractalDistError, ValueError):
    """A fractal spec (builtin or from file) failed validation."""


class ResourceLimitError(FractalDistError):
    """A requested ``level`` would exceed the configured memory budget, or
    the exact level-1 elimination its size limit (``level`` 1)."""

    def __init__(self, message, attempted_size, level):
        super().__init__(message)
        self.attempted_size = attempted_size
        self.level = level

    def __reduce__(self):
        # ``args`` holds only the message; a pickle rebuilds from all three
        return type(self), (*self.args, self.attempted_size, self.level)


class DegenerateFormError(FractalDistError):
    """A quadratic form could not be traced (a zero pivot, or a coefficient
    past the largest double)."""


class BrokenStructureError(FractalDistError):
    """Eigendata inconsistent with the supplied (D, r) pair."""


class NoEqualWeightStructureError(FractalDistError):
    """The traced one-cell sum is not proportional to the boundary form."""

    def __init__(self, message, deviation):
        super().__init__(message)
        self.deviation = deviation

    def __reduce__(self):
        return type(self), (*self.args, self.deviation)
