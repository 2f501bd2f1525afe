"""Numerical certification of invariant bi-Poisson reduction on orbit tangent bundles."""

from .errors import (
    ChartDegeneracyError,
    ChartRangeError,
    ConfigError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    GenericityError,
    InputError,
    SetupError,
    WorkbenchError,
)
from .families import so, su
from .lie_core import LieAlgebra, Subspace, algebra_from_matrices
from .orbit_charts import Chart, FormField, OrbitConfig, orbit_config
from .workbench import ReductionReport, WorkbenchConfig, load_config, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ChartDegeneracyError",
    "ChartRangeError",
    "ConfigError",
    "ConvergenceError",
    "DegeneracyError",
    "DomainError",
    "GenericityError",
    "InputError",
    "SetupError",
    "WorkbenchError",
    "LieAlgebra",
    "Subspace",
    "algebra_from_matrices",
    "so",
    "su",
    "Chart",
    "FormField",
    "OrbitConfig",
    "orbit_config",
    "ReductionReport",
    "WorkbenchConfig",
    "load_config",
    "run_pipeline",
]
