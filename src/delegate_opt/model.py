"""Market primitives of the parametrized matching model.

Gross match surplus v(x, s, z) = A s^a x z, signaling cost c(s, z) = beta s^2 / z,
and the matching map n(z) = k z^q linking sender and receiver types. Each
rejects a negative or NaN action and a NaN type with DomainError. Their
analytic partial derivatives, which only the tests' consistency checks use,
live in ``tests/conftest.py``.
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
    # case a = 0 needs; guard against negative (and NaN) bases instead. A NaN
    # makes the minimum NaN, which fails the test.
    base = np.asarray(base, dtype=float)
    if base.size and not base.min() >= 0.0:
        raise DomainError("negative or NaN base in power law")
    return np.power(base, exponent)


def surplus_v(p: ModelParams, x, s, z):
    """Gross match surplus A s^a x z (with s^0 = 1)."""
    out = p.A * _pow(s, p.a) * x * z
    # _pow has checked s, so a NaN here comes from x or z.
    if np.isnan(out).any():
        raise DomainError("NaN receiver or sender type in the match surplus")
    return out


def cost_c(p: ModelParams, s, z):
    """Signaling cost beta s^2 / z; 0 whenever s = 0."""
    s_arr = np.asarray(s, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    # Holds where s >= 0 and (z >= EFFECTIVE_ZERO or s = 0), and fails on a
    # NaN in either: np.minimum and np.maximum propagate it.
    if not (np.minimum(s_arr, np.maximum(z_arr - EFFECTIVE_ZERO, -s_arr)) >= 0.0).all():
        raise DomainError("cost singular: s < 0, s > 0 with z below the effective zero, or NaN")
    # Past the check, z < EFFECTIVE_ZERO only with s = 0, where the cost is 0.
    out = p.beta_cost * s_arr**2 / np.maximum(z_arr, EFFECTIVE_ZERO)
    return float(out) if np.ndim(out) == 0 else out


def match_n(p: ModelParams, z):
    """Receiver type matched to sender type z: n(z) = k z^q."""
    return p.k * _pow(z, p.q)
