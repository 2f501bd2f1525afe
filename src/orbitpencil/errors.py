"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench failures."""


class InputError(WorkbenchError, ValueError):
    """Malformed input: wrong shapes, mismatched dimensions, bad values."""


class DomainError(WorkbenchError, ValueError):
    """Input is well-formed but outside the mathematical domain of the operation."""


class ChartRangeError(DomainError):
    """Coordinates fall outside the validity box of a chart."""


class ChartDegeneracyError(WorkbenchError):
    """A chart pushforward lost rank where full rank is required."""


class DegeneracyError(WorkbenchError):
    """A form or pencil member is singular at a sampled point."""

    def __init__(self, message, coords=None):
        super().__init__(message)
        self.coords = None if coords is None else tuple(float(c) for c in coords)


class GenericityError(WorkbenchError):
    """Random sampling failed to stabilise a generic quantity; raise the sample count."""


class SetupError(WorkbenchError):
    """A structural identity of the reduction setup failed; the message names it."""


class ConvergenceError(WorkbenchError):
    """An iteration hit its step limit before reaching the requested residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class ConfigError(WorkbenchError, ValueError):
    """Workbench configuration file failed parsing or validation."""
