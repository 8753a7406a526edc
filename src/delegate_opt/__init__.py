"""Optimal delegation intervals in matching markets with signaling.

Computes the unique well-behaved stronger-monotone competitive signaling
equilibrium for a reaction interval, maximizes aggregate net surplus over the
two threshold sender types, and reproduces the published numerical designs as
machine-checkable tables.
"""

from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateTailError,
    DelegateOptError,
    DomainError,
    InconsistencyError,
)
from .model import ModelParams
from .optimizer import DelegationOutcome, optimize
from .separating import SeparatingPath, s_lower
from .surplus import SurplusBreakdown, pi_p, pi_s, pi_w, well_behaved_gain
from .thresholds import (
    Thresholds,
    invert_cap,
    invert_floor,
    pooling_star,
    solve_bottom,
    solve_top,
)

__version__ = "0.1.0"

__all__ = [
    "EFFECTIVE_ZERO",
    "SenderDist",
    "ModelParams",
    "SeparatingPath",
    "s_lower",
    "Thresholds",
    "solve_bottom",
    "solve_top",
    "pooling_star",
    "invert_cap",
    "invert_floor",
    "SurplusBreakdown",
    "pi_w",
    "pi_p",
    "pi_s",
    "well_behaved_gain",
    "DelegationOutcome",
    "optimize",
    "ConfigError",
    "ConvergenceError",
    "DegenerateTailError",
    "DelegateOptError",
    "DomainError",
    "InconsistencyError",
    "__version__",
]
