"""Exception types shared across the package."""


class FractalDistError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(FractalDistError, ValueError):
    """An unsupported generator kind or parameter was requested."""


class SpecValidationError(FractalDistError, ValueError):
    """A fractal spec (builtin or from file) failed validation."""


class ResourceLimitError(FractalDistError):
    """A requested ``level`` would exceed the configured memory budget."""

    def __init__(self, message, attempted_size, level):
        super().__init__(message)
        self.attempted_size = attempted_size
        self.level = level


class DegenerateFormError(FractalDistError):
    """A quadratic form could not be traced (singular eliminated block)."""


class BrokenStructureError(FractalDistError):
    """Eigendata inconsistent with the supplied (D, r) pair."""


class NoEqualWeightStructureError(FractalDistError):
    """The traced one-cell sum is not proportional to the boundary form."""

    def __init__(self, message, deviation):
        super().__init__(message)
        self.deviation = deviation
