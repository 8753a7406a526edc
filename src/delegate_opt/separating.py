"""Separating backbone of a well-behaved equilibrium.

Anchored at the entry point (z_l, s_l), the belief function mu(s) has the
closed form

    mu(s)^(2+q) = c1 * s^(2-a) + kappa * s^(-a(2+q))

where c1 = 2 beta (2+q) / (A k (2+a+aq)) and kappa is pinned down by the
initial condition mu(s_l) = z_l (kappa = 0 when z_l = 0, in which case mu is
a pure power law B s^m with m = (2-a)/(2+q)). The action function sigma is
mu's inverse, obtained by safeguarded Newton since no closed form exists for
z_l > 0. The wage tau integrates the marginal cost along the path, which by
the envelope argument equals the receiver-side marginal-value integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .quadrature import integrate

_INV_TOL = 1e-12
_DOMAIN_SLACK = 1e-9


def s_lower(p: ModelParams, z_l: float) -> float:
    """Entry action of the lowest matched type: (A k z_l^(q+2) / beta)^(1/(2-a)).

    The bottom match earns no information rent, so the entry action solves
    v(n(z_l), s, z_l) - c(s, z_l) = 0; z_l = 0 is normalized to s = 0.
    """
    if z_l < 0:
        raise DomainError(f"z_l={z_l} negative")
    if z_l == 0.0:
        return 0.0
    return (p.A * p.k * z_l ** (p.q + 2.0) / p.beta_cost) ** (1.0 / (2.0 - p.a))


@dataclass(frozen=True)
class SeparatingPath:
    """Belief mu, action sigma, and wage tau anchored at (z_l, s_l, t_l).

    Immutable after construction; the inversion bracket covering
    [s_l, sigma(zbar)] is computed eagerly so concurrent reads share no
    mutable state.
    """

    params: ModelParams
    z_l: float
    zbar: float
    s_l: float = field(init=False)
    t_l: float = field(init=False)
    _c1: float = field(init=False, repr=False)
    _kappa: float = field(init=False, repr=False)
    _s_top: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = self.params
        if not 0.0 <= self.z_l < self.zbar:
            raise DomainError(f"z_l={self.z_l} outside [0, zbar={self.zbar})")
        s_l = s_lower(p, self.z_l)
        t_l = 0.0 if self.z_l == 0.0 else model.cost_c(p, s_l, self.z_l)
        c1 = 2.0 * p.beta_cost * (2.0 + p.q) / (p.A * p.k * (2.0 + p.a + p.a * p.q))
        if self.z_l == 0.0:
            kappa = 0.0
        else:
            kappa = s_l ** (p.a * (2.0 + p.q)) * (
                self.z_l ** (2.0 + p.q) - c1 * s_l ** (2.0 - p.a)
            )
        object.__setattr__(self, "s_l", s_l)
        object.__setattr__(self, "t_l", t_l)
        object.__setattr__(self, "_c1", c1)
        object.__setattr__(self, "_kappa", kappa)
        object.__setattr__(self, "_s_top", self._solve_top_action())

    # -- power-law shorthands for the z_l = 0 branch ------------------------

    @property
    def _m(self) -> float:
        p = self.params
        return (2.0 - p.a) / (2.0 + p.q)

    @property
    def _B(self) -> float:
        return self._c1 ** (1.0 / (2.0 + self.params.q))

    def _solve_top_action(self) -> float:
        """sigma(zbar), the right end of the action domain."""
        p = self.params
        target = self.zbar ** (2.0 + p.q)
        seed = (target / self._c1) ** (1.0 / (2.0 - p.a))
        if self.z_l == 0.0:
            return seed
        hi = max(seed, 2.0 * self.s_l, 1e-12)
        for _ in range(200):
            if self._poly(hi) >= target:
                break
            hi *= 2.0
        else:
            raise ConvergenceError("could not bracket sigma(zbar)")
        lo, s = self.s_l, max(seed, self.s_l)
        for _ in range(200):
            f = self._poly(s) - target
            if f < 0.0:
                lo = s
            elif f > 0.0:
                hi = s
            s_new = s - f / self._poly_prime(s)
            if not lo < s_new < hi:
                s_new = 0.5 * (lo + hi)
            if abs(s_new - s) <= _INV_TOL * max(1.0, s):
                return s_new
            s = s_new
        raise ConvergenceError("sigma(zbar) solve did not converge")

    def _poly(self, s):
        """mu(s)^(2+q)."""
        p = self.params
        if self._kappa == 0.0:
            return self._c1 * np.power(s, 2.0 - p.a)
        return self._c1 * np.power(s, 2.0 - p.a) + self._kappa * np.power(
            s, -p.a * (2.0 + p.q)
        )

    def _poly_prime(self, s):
        p = self.params
        out = (2.0 - p.a) * self._c1 * np.power(s, 1.0 - p.a)
        if self._kappa != 0.0 and p.a != 0.0:
            out = out - p.a * (2.0 + p.q) * self._kappa * np.power(
                s, -p.a * (2.0 + p.q) - 1.0
            )
        return out

    # -- belief and its derivative ------------------------------------------

    def mu_tilde(self, s):
        """Market belief mu(s) about the sender type choosing action s."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < self.s_l * (1.0 - _DOMAIN_SLACK) - _DOMAIN_SLACK):
            raise DomainError(f"mu undefined below the entry action s_l={self.s_l}")
        s_arr = np.maximum(s_arr, self.s_l)
        q2 = 2.0 + self.params.q
        if self.z_l == 0.0:
            out = self._B * np.power(s_arr, self._m)
        else:
            out = np.power(self._poly(s_arr), 1.0 / q2)
        return float(out) if np.ndim(s) == 0 else out

    def mu_prime(self, s):
        """d mu / d s, analytic from the closed form (s > s_l or z_l > 0)."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0.0):
            raise DomainError("mu_prime needs s > 0")
        q2 = 2.0 + self.params.q
        out = self._poly_prime(s_arr) / (q2 * np.power(self._poly(s_arr), (q2 - 1.0) / q2))
        return float(out) if np.ndim(s) == 0 else out

    # -- the inverse action function -----------------------------------------

    def sigma_tilde(self, z: float) -> float:
        """Equilibrium action sigma(z) with mu(sigma(z)) = z."""
        return float(self.sigma_many(np.asarray([z], dtype=float))[0])

    def sigma_many(self, z: np.ndarray, seed: np.ndarray | None = None) -> np.ndarray:
        """Vectorized inversion of mu; exact power law when z_l = 0.

        ``seed`` supplies per-node starting actions (e.g. interpolated from
        neighbouring solves); without it the kappa-free power law seeds from
        below.
        """
        z = np.asarray(z, dtype=float)
        if np.any(z < self.z_l - _DOMAIN_SLACK) or np.any(z > self.zbar * (1.0 + _DOMAIN_SLACK)):
            raise DomainError(f"sigma defined on [z_l={self.z_l}, zbar={self.zbar}] only")
        z = np.clip(z, self.z_l, self.zbar)
        p = self.params
        target = np.power(z, 2.0 + p.q)
        if self.z_l == 0.0:
            return np.power(target / self._c1, 1.0 / (2.0 - p.a))

        # Safeguarded Newton on P(s) = z^(2+q).
        g = p.a * (2.0 + p.q)
        lo = np.full_like(z, self.s_l)
        hi = np.full_like(z, self._s_top * (1.0 + 1e-12))
        if seed is None:
            s = np.maximum((target / self._c1) ** (1.0 / (2.0 - p.a)), self.s_l)
        else:
            s = np.clip(np.asarray(seed, dtype=float), lo, hi)
        for _ in range(100):
            pow1 = np.power(s, 2.0 - p.a)
            pow2 = np.power(s, -g) if self._kappa != 0.0 else 0.0
            f = self._c1 * pow1 + self._kappa * pow2 - target
            fp = ((2.0 - p.a) * self._c1 * pow1 - g * self._kappa * pow2) / s
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f > 0.0, s, hi)
            s_new = s - f / fp
            bad = (s_new < lo) | (s_new > hi)
            s_new = np.where(bad, 0.5 * (lo + hi), s_new)
            if np.max(np.abs(s_new - s)) <= _INV_TOL * max(1.0, float(np.max(s))):
                return s_new
            s = s_new
        raise ConvergenceError("sigma inversion did not converge")

    # -- the market wage -------------------------------------------------------

    def tau_tilde(self, s: float) -> float:
        """Wage tau(s), integrating marginal cost along the path."""
        if s < self.s_l * (1.0 - _DOMAIN_SLACK) - _DOMAIN_SLACK:
            raise DomainError(f"tau undefined below s_l={self.s_l}")
        if s > self._s_top * (1.0 + _DOMAIN_SLACK):
            raise DomainError("tau undefined beyond sigma(zbar)")
        s = max(s, self.s_l)
        p = self.params
        if self.z_l == 0.0:
            m = self._m
            return 2.0 * p.beta_cost / self._B * s ** (2.0 - m) / (2.0 - m)
        return self.t_l + integrate(
            lambda y: 2.0 * p.beta_cost * y / self.mu_tilde(y), self.s_l, s
        )

    def top_wage(self) -> float:
        """tau(sigma(zbar)) -- the wage cap above which no pooling occurs."""
        return self.tau_tilde(self.sigma_tilde(self.zbar))

    # -- equilibrium rents (diagnostics) --------------------------------------

    def sender_rent(self, z: float) -> float:
        s = self.sigma_tilde(z)
        return self.tau_tilde(s) - model.cost_c(self.params, s, z)

    def receiver_rent(self, z: float) -> float:
        s = self.sigma_tilde(z)
        x = model.match_n(self.params, z)
        return model.surplus_v(self.params, x, s, z) - self.tau_tilde(s)
