"""Market primitives of the parametrized matching model.

Gross match surplus v(x, s, z) = A s^a x z, signaling cost c(s, z) = beta s^2 / z,
and the matching map n(z) = k z^q linking sender and receiver types. Analytic
partial derivatives are exposed so downstream consistency checks never have to
differentiate numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import EFFECTIVE_ZERO
from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class ModelParams:
    """The five scalar primitives (A, beta_cost, a, k, q)."""

    A: float = 1.0
    beta_cost: float = 0.5
    a: float = 0.5
    k: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.A, self.beta_cost, self.k, self.q))):
            raise ConfigError(f"A, beta, k, q must be finite, got {self}")
        if self.A <= 0 or self.beta_cost <= 0 or self.k <= 0:
            raise ConfigError("A, beta, k must be positive")
        if not 0.0 <= self.a < 1.0:
            raise ConfigError(f"signal productivity a={self.a} must lie in [0, 1)")
        if self.q < 0:
            raise ConfigError(f"relative spacing q={self.q} must be nonnegative")


def _pow(base, exponent):
    # np.power returns 1.0 for 0**0, which is the convention the pure-signaling
    # case a = 0 needs; guard against negative (and NaN) bases instead.
    if not (np.asarray(base) >= 0).all():
        raise DomainError("negative or NaN base in power law")
    return np.power(base, exponent)


def surplus_v(p: ModelParams, x, s, z):
    """Gross match surplus A s^a x z (with s^0 = 1)."""
    return p.A * _pow(s, p.a) * x * z


def cost_c(p: ModelParams, s, z):
    """Signaling cost beta s^2 / z; 0 whenever s = 0."""
    s_arr = np.asarray(s, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    # Holds where z >= EFFECTIVE_ZERO or s <= 0, and fails on a NaN in either.
    if not (np.maximum(z_arr - EFFECTIVE_ZERO, -s_arr) >= 0.0).all():
        raise DomainError("cost singular: s > 0 with z below the effective zero, or NaN")
    # Past the check, z < EFFECTIVE_ZERO only with s = 0, where the cost is 0.
    out = p.beta_cost * s_arr**2 / np.maximum(z_arr, EFFECTIVE_ZERO)
    return float(out) if np.ndim(out) == 0 else out


def match_n(p: ModelParams, z):
    """Receiver type matched to sender type z: n(z) = k z^q."""
    return p.k * _pow(z, p.q)


def v_s(p: ModelParams, x, s, z):
    """dv/ds = a A s^(a-1) x z; identically 0 in the pure-signaling case."""
    if p.a == 0.0:
        return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0
    return p.a * p.A * _pow(s, p.a - 1.0) * x * z


def v_z(p: ModelParams, x, s, z):
    """dv/dz = A s^a x."""
    return p.A * _pow(s, p.a) * x


def c_s(p: ModelParams, s, z):
    """dc/ds = 2 beta s / z."""
    return 2.0 * p.beta_cost * np.asarray(s, dtype=float) / z if np.ndim(s) else (
        2.0 * p.beta_cost * s / z
    )


def c_z(p: ModelParams, s, z):
    """dc/dz = -beta s^2 / z^2."""
    return -p.beta_cost * _pow(s, 2.0) / np.asarray(z, dtype=float) ** 2
