"""Separating backbone of a well-behaved equilibrium.

Anchored at the entry point (z_l, s_l), the belief function mu(s) has the
closed form

    mu(s)^(2+q) = c1 * s^(2-a) + kappa * s^(-a(2+q))

where c1 = 2 beta (2+q) / (A k (2+a+aq)) and kappa is pinned down by the
initial condition mu(s_l) = z_l (kappa = 0 when z_l = 0, in which case mu is
a pure power law B s^m with m = (2-a)/(2+q)). The action function sigma is
mu's inverse. It has no closed form for z_l > 0, but in v = s^(2+a+aq) the
inversion is a convex root, which Newton solves from the power law without a
bracket (``newton_blocks``, the loop that the pooled action shares). The
wage tau is the integral of the marginal cost 2 beta s / mu(s) along the
path, which by the envelope argument equals the receiver-side marginal-value
integrand. It has a closed form: a power law when z_l = 0, a Gauss
hypergeometric function (DLMF 15.2) when z_l > 0. The surplus integrals
over the separating region run over the type through sigma, so nothing in
the package differentiates mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import hyp2f1

from . import model
from .errors import ConvergenceError, DomainError
from .model import ModelParams

_INV_TOL = 1e-12
_DOMAIN_SLACK = 1e-9
_BLOCK = 4  # Newton steps between convergence tests


def newton_blocks(step, x, tol: float, message: str):
    """Elementwise Newton x <- x - step(x) from x, in blocks of 4 steps.

    After each block, an element whose last step was at most tol * x keeps
    that block's result, so it depends on its own inputs alone and not on
    the batch it came in; the other elements go on. Raises
    ConvergenceError(message) with any element left after 100 steps.
    """
    out, live = x, True
    for _ in range(100 // _BLOCK):
        for _ in range(_BLOCK):
            dx = step(x)
            x = x - dx
        fresh = live & (np.abs(dx) <= tol * x)
        if fresh.all():  # every element, none kept from an earlier block
            return x
        out, live = np.where(fresh, x, out), live & ~fresh
        if not live.any():
            return out
    raise ConvergenceError(message)


def s_lower(p: ModelParams, z_l: float) -> float:
    """Entry action of the lowest matched type: (A k z_l^(q+2) / beta)^(1/(2-a)).

    The bottom match earns no information rent, so the entry action solves
    v(n(z_l), s, z_l) - c(s, z_l) = 0, which gives s = 0 at z_l = 0.
    """
    if not 0.0 <= z_l < math.inf:
        raise DomainError(f"z_l={z_l} must be finite and nonnegative")
    try:
        return (p.A * p.k * z_l ** (p.q + 2.0) / p.beta_cost) ** (1.0 / (2.0 - p.a))
    except OverflowError as exc:
        raise DomainError(f"entry action of z_l={z_l} overflows a float") from exc


@dataclass(frozen=True)
class SeparatingPath:
    """Belief mu, action sigma, and wage tau anchored at (z_l, s_l, t_l).

    Immutable after construction, which solves nothing: every field is a
    closed form of the anchor.
    """

    params: ModelParams
    z_l: float
    zbar: float
    s_l: float = field(init=False)
    t_l: float = field(init=False)
    c1: float = field(init=False, repr=False)
    _kappa: float = field(init=False, repr=False)

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
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "_kappa", kappa)

    # -- power-law shorthands for the z_l = 0 branch ------------------------

    @property
    def _m(self) -> float:
        p = self.params
        return (2.0 - p.a) / (2.0 + p.q)

    @property
    def _B(self) -> float:
        return self.c1 ** (1.0 / (2.0 + self.params.q))

    # -- the belief ----------------------------------------------------------

    def mu_tilde(self, s):
        """Market belief mu(s) about the sender type choosing action s."""
        s_arr = np.asarray(s, dtype=float)
        lo = self.s_l * (1.0 - _DOMAIN_SLACK) - _DOMAIN_SLACK
        if not ((s_arr >= lo) & (s_arr < math.inf)).all():
            raise DomainError(f"mu undefined below the entry action s_l={self.s_l} or at inf")
        s_arr = np.maximum(s_arr, self.s_l)
        a, q2 = self.params.a, 2.0 + self.params.q
        if self.z_l == 0.0:
            out = self._B * np.power(s_arr, self._m)
        else:  # mu^(2+q) = c1 s^(2-a) + kappa s^(-a(2+q))
            poly = self.c1 * np.power(s_arr, 2.0 - a) + self._kappa * np.power(s_arr, -a * q2)
            out = np.power(poly, 1.0 / q2)
        return float(out) if np.ndim(s) == 0 else out

    # -- the inverse action function -----------------------------------------

    def sigma_tilde(self, z: float) -> float:
        """Equilibrium action sigma(z) with mu(sigma(z)) = z."""
        return float(self.sigma_many(z))

    def power_sigma(self, z_2q: np.ndarray) -> np.ndarray:
        """sigma on a path anchored at z_l = 0 from z_2q = z^(2+q) at z in
        [0, zbar]: the power law (z^(2+q)/c1)^(1/(2-a))."""
        return np.power(z_2q / self.c1, 1.0 / (2.0 - self.params.a))

    def sigma_many(self, z: np.ndarray) -> np.ndarray:
        """Inverse of mu at every z in [z_l, zbar]; exact power law when z_l = 0.

        For z_l > 0, multiplying mu^(2+q) = z^(2+q) by s^(a(2+q)) and writing
        v = s^r with r = 2+a+aq and e = a(2+q)/r < 1 turns the inversion into
        h(v) = c1 v + kappa - z^(2+q) v^e = 0, convex in v. The kappa-free
        power law v0 = (z^(2+q)/c1)^(1/(1-e)) has h(v0) = kappa < 0 and
        h'(v0) = c1 (1-e) > 0, so the first Newton step lands right of the
        root and every later one descends onto it with h' > 0: no bracket is
        needed. h is linear when a = 0. Every power is ``np.power``, so a
        scalar, a one-element and a longer array round alike.
        """
        z = np.asarray(z, dtype=float)
        if not ((z >= self.z_l - _DOMAIN_SLACK) & (z <= self.zbar * (1.0 + _DOMAIN_SLACK))).all():
            raise DomainError(f"sigma defined on [z_l={self.z_l}, zbar={self.zbar}] only")
        z = np.minimum(np.maximum(z, self.z_l), self.zbar)
        p = self.params
        target = np.power(z, 2.0 + p.q)
        if self.z_l == 0.0:
            return self.power_sigma(target)
        r = 2.0 + p.a + p.a * p.q
        e = p.a * (2.0 + p.q) / r

        def step(v):
            v_e = np.power(v, e)
            return (self.c1 * v + self._kappa - target * v_e) / (self.c1 - e * target * v_e / v)

        v = np.power(target / self.c1, 1.0 / (1.0 - e))
        v = newton_blocks(step, v, _INV_TOL, "sigma inversion did not converge")
        return np.power(v, 1.0 / r)

    # -- the market wage -------------------------------------------------------

    def tau_tilde(self, s: float) -> float:
        """Wage tau(s) = t_l + int_{s_l}^s 2 beta y / mu(y) dy, in closed form.

        Write mu(s) = B s^m (1 - w(s))^g with g = 1/(2+q) and
        w(s) = -kappa / (c1 s^r) = w_l (s_l/s)^r, where r = 2+a+aq and the
        entry condition gives w_l = 1 - r/(2(2+q)) < 1. Then
        s^(2-m) 2F1(b, g; b+1; w(s)) with b = -(2-m)/r has the derivative
        (2-m) s^(1-m) (1-w)^(-g), so it is the integrand's antiderivative up
        to the factor 2 beta / (B (2-m)). On z_l = 0, w = 0 and the wage is
        the power law. The domain check mu(s) <= zbar (1 + slack) compares
        logs of mu^(2+q) = c1 s^(2-a) (1 - w(s)), floats that cannot overflow.
        """
        if not s >= self.s_l * (1.0 - _DOMAIN_SLACK) - _DOMAIN_SLACK:
            raise DomainError(f"tau needs s >= s_l={self.s_l}, got {s}")
        s = max(s, self.s_l)
        p = self.params
        m, r = self._m, 2.0 + p.a + p.a * p.q
        w_l = 1.0 - r / (2.0 * (2.0 + p.q))
        log_1mw = math.log1p(-w_l * (self.s_l / s) ** r) if self.z_l else 0.0
        if s > 0.0 and (math.log(self.c1) + (2.0 - p.a) * math.log(s) + log_1mw
                        > (2.0 + p.q) * math.log(self.zbar * (1.0 + _DOMAIN_SLACK))):
            raise DomainError("tau undefined beyond sigma(zbar)")
        scale = 2.0 * p.beta_cost / self._B
        if self.z_l == 0.0:
            return scale * s ** (2.0 - m) / (2.0 - m)
        b = (m - 2.0) / r

        def antiderivative(y: float) -> float:
            w = w_l * (self.s_l / y) ** r
            return y ** (2.0 - m) * hyp2f1(b, 1.0 / (2.0 + p.q), b + 1.0, w)

        rise = antiderivative(s) - antiderivative(self.s_l)
        return self.t_l + scale * rise / (2.0 - m)

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
