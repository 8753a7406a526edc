"""Aggregate net surplus of a well-behaved equilibrium.

The planner's objective splits into a separating part (assortative matching,
type-specific actions) on [z_l, z_h] and a pooling part (random matching,
one pooled action) on [z_h, zbar]:

    sep  = int_{z_l}^{z_h} (A k z^(q+1) sigma(z)^a - beta sigma(z)^2 / z) g(z) dz
    pool = A k s_h^a E[z|z>=z_h] int_{z_h}^{zbar} z^q g(z) dz
           - beta s_h^2 int_{z_h}^{zbar} g(z)/z dz

On a path anchored at z_l = 0, sigma(z) = (z^(2+q)/c1)^(1/(2-a)) is a power
law, so the separating density is K z^P g(z) with P = (2+2q+a)/(2-a) and
K = A k c1^(-a/(2-a)) - beta c1^(-2/(2-a)), and the separating part is a
difference of regularized incomplete betas:

    sep = K zbar^P B(alpha+P, beta)/B(alpha, beta)
          * (I_{z_hi/zbar} - I_{z_lo/zbar})(alpha+P, beta)

On a path anchored at z_l > 0, sigma has no closed form but its inverse mu
does, so the separating part is integrated over the action instead of the
type (z = mu(s), dz = mu'(s) ds):

    sep = int_{sigma(z_lo)}^{sigma(z_hi)}
              (A k mu^(q+1) s^a - beta s^2 / mu) g(mu) mu'(s) ds

by QUADPACK's QAGS, whose extrapolation handles the (zbar - z)^(beta-1)
endpoint singularity of Beta shapes below 1; only the two limits invert mu.
The pooling part takes its tail integrals from the closed forms in
``distributions``. Transfers cancel, so nothing here reads wages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc, betaln

from . import thresholds
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import DomainError
from .model import ModelParams
from .quadrature import integrate
from .separating import SeparatingPath
from .thresholds import _TOP_GUARD


@dataclass(frozen=True)
class SurplusBreakdown:
    separating_part: float
    pooling_part: float
    total: float
    z_l: float
    z_h: float


def sep_part(
    p: ModelParams,
    d: SenderDist,
    path: SeparatingPath,
    z_lo: float | np.ndarray,
    z_hi: float | np.ndarray,
) -> float | np.ndarray:
    """Net surplus density integrated over a slice of the separating region.

    Closed form on a path anchored at z_l = 0, where z_lo and z_hi may be
    arrays; adaptive quadrature over the action on any other path.
    """
    if path.z_l > 0.0:

        def density(s: float) -> float:
            mu = path.mu_tilde(s)
            net = p.A * p.k * mu ** (p.q + 1.0) * s**p.a - p.beta_cost * s**2 / mu
            return net * d.pdf(mu) * path.mu_prime(s)

        s_lo, s_hi = path.sigma_many(np.array([z_lo, z_hi], dtype=float))
        return integrate(density, s_lo, s_hi)
    e = 1.0 / (2.0 - p.a)
    power = (2.0 + 2.0 * p.q + p.a) * e
    k_net = p.A * p.k * path.c1 ** (-p.a * e) - p.beta_cost * path.c1 ** (-2.0 * e)
    a, b = d.alpha + power, d.beta_shape
    scale = k_net * d.zbar**power * math.exp(betaln(a, b) - betaln(d.alpha, b))
    # SciPy returns NaN outside [0, 1], so the limits are clamped first.
    x_lo, x_hi = (np.clip(z / d.zbar, 0.0, 1.0) for z in (z_lo, z_hi))
    return scale * (betainc(a, b, x_hi) - betainc(a, b, x_lo))


def _pooled_net(p: ModelParams, s_h, ez, pm_q, pm_inv):
    """A k s_h^a E[z|z>=z_h] int z^q g - beta s_h^2 int g/z over the pooled tail."""
    return p.A * p.k * s_h**p.a * ez * pm_q - p.beta_cost * s_h**2 * pm_inv


def pool_part(
    p: ModelParams, d: SenderDist, z_h: float | np.ndarray, s_h: float | np.ndarray
) -> float | np.ndarray:
    """Net surplus of the pooled tail, given the pooled action s_h.

    The 1/z integral is cut at EFFECTIVE_ZERO, so with s_h = 0 the cost term
    is exactly zero, which covers the degenerate pooling-at-zero case where
    the raw integral would diverge. Zero within the top guard of zbar.
    """
    out = np.where(
        np.asarray(z_h) >= d.zbar - _TOP_GUARD,
        0.0,
        _pooled_net(p, s_h, *d.tail_moments(z_h, p.q)),
    )
    return float(out) if out.ndim == 0 else out


def pi_w(p: ModelParams, d: SenderDist, z_l: float, z_h: float) -> SurplusBreakdown:
    """Aggregate net surplus of the well-behaved equilibrium at (z_l, z_h)."""
    if not 0.0 <= z_l <= z_h <= d.zbar * (1.0 + 1e-12):
        raise DomainError(f"need 0 <= z_l <= z_h <= zbar, got ({z_l}, {z_h})")
    if z_h <= z_l:
        s_star, _ = thresholds.pooling_star(p, d, z_l)
        pool = pool_part(p, d, z_l, s_star)
        return SurplusBreakdown(0.0, pool, pool, z_l, z_h)
    path = SeparatingPath(p, z_l, d.zbar)
    if z_h >= d.zbar - _TOP_GUARD:
        sep = sep_part(p, d, path, z_l, d.zbar)
        return SurplusBreakdown(sep, 0.0, sep, z_l, z_h)
    sep = sep_part(p, d, path, z_l, z_h)
    s_h = thresholds.pooled_action(p, d, path, z_h)
    pool = pool_part(p, d, z_h, s_h)
    return SurplusBreakdown(sep, pool, sep + pool, z_l, z_h)


def pi_p(p: ModelParams, d: SenderDist, z_star: float) -> float:
    """Net surplus of the pure pooling equilibrium with entry threshold z*."""
    s_star, _ = thresholds.pooling_star(p, d, z_star)
    return pool_part(p, d, z_star, s_star)


def pi_w_edge(
    p: ModelParams, d: SenderDist, z_h: np.ndarray, moments: tuple
) -> np.ndarray:
    """Pi_w(0, z_h) at many z_h > 0 in one batch: ``pi_w(p, d, 0, z_h).total``.

    ``moments`` is ``d.tail_moments(z_h, p.q)``.
    """
    z_h = np.asarray(z_h, dtype=float)
    ez, pm_q, pm_inv = moments
    path = SeparatingPath(p, 0.0, d.zbar)
    top = z_h >= d.zbar - _TOP_GUARD
    sep = sep_part(p, d, path, 0.0, np.where(top, d.zbar, z_h))
    s_h = np.zeros_like(z_h)
    s_h[~top] = thresholds.pooled_action_many(
        p, path.sigma_many(z_h[~top]), z_h[~top], ez[~top]
    )
    return sep + np.where(top, 0.0, _pooled_net(p, s_h, ez, pm_q, pm_inv))


def pi_p_many(
    p: ModelParams, d: SenderDist, z_star: np.ndarray, moments: tuple
) -> np.ndarray:
    """Pi_p(z*) at many z* in [0, zbar] in one batch: ``pi_p(p, d, z*)``.

    ``moments`` is ``d.tail_moments(z_star, p.q)``. The pooled action is
    ``pooling_star``'s closed form, zero below EFFECTIVE_ZERO.
    """
    z_star = np.asarray(z_star, dtype=float)
    ez, pm_q, pm_inv = moments
    s_star = (
        z_star ** (p.q + 1.0) * p.A * p.k * ez / p.beta_cost
    ) ** (1.0 / (2.0 - p.a))
    s_star = np.where(z_star < EFFECTIVE_ZERO, 0.0, s_star)
    return np.where(
        z_star >= d.zbar - _TOP_GUARD, 0.0, _pooled_net(p, s_star, ez, pm_q, pm_inv)
    )


def pi_s(p: ModelParams, d: SenderDist, z_l: float = 0.0) -> float:
    """Net surplus of the separating equilibrium (full delegation)."""
    return pi_w(p, d, z_l, d.zbar).total


def well_behaved_gain(
    p: ModelParams,
    d: SenderDist,
    q_small: float,
    a_small: float,
    z_h_small: float,
) -> float:
    """Pi_w(0, z_h) - Pi_s at perturbed (q, a); tends to A k mu_z / 2 as all
    three arguments shrink, which is why small caps beat full delegation."""
    p_small = replace(p, q=q_small, a=a_small)
    return pi_w(p_small, d, 0.0, z_h_small).total - pi_s(p_small, d)
