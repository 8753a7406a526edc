"""Exception hierarchy shared by the solver modules."""

from __future__ import annotations


class DelegateOptError(Exception):
    """Base class for all package errors."""


class ConfigError(DelegateOptError):
    """Invalid parameters, distribution shapes, or CLI/config input."""


class DomainError(DelegateOptError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(DelegateOptError):
    """A quadrature rule, root finder, or bisection failed to converge."""


class DegenerateTailError(DelegateOptError):
    """No pooled action: the tail mean above z_h does not exceed z_h."""


class InconsistencyError(DelegateOptError):
    """Two retrievals that must agree by construction disagreed beyond tolerance.

    Raised instead of returning a value: disagreement signals an internal
    bug in the equilibrium system, not a recoverable numeric hiccup.
    """
