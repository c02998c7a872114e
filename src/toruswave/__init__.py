"""Numerical laboratory for a damped semilinear wave equation on the 3-torus."""

from .calibration import (
    CalibratedConstants,
    calibrate,
    load_constants,
    save_constants,
)
from .energy import modified_energy
from .estimates import (
    BootstrapParams,
    epsilon_budgets,
    forcing_constant,
    fractional_constant,
    g_function,
    h_threshold,
)
from .fields import GridSpec
from .solver import (
    BreakdownInfo,
    SolverConfig,
    SolverState,
    Trajectory,
    simulate,
)
from .source import ModelParams, SourceSpec, prepare_source
from .verify import CheckResult, VerificationReport, run_all

__version__ = "0.1.0"

__all__ = [
    "BootstrapParams",
    "BreakdownInfo",
    "CalibratedConstants",
    "CheckResult",
    "GridSpec",
    "ModelParams",
    "SolverConfig",
    "SolverState",
    "SourceSpec",
    "Trajectory",
    "VerificationReport",
    "calibrate",
    "epsilon_budgets",
    "forcing_constant",
    "fractional_constant",
    "g_function",
    "h_threshold",
    "load_constants",
    "modified_energy",
    "prepare_source",
    "run_all",
    "save_constants",
    "simulate",
    "__version__",
]
