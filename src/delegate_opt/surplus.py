"""Aggregate net surplus of a well-behaved equilibrium.

The planner's objective splits into a separating part (assortative matching,
type-specific actions) on [z_l, z_h] and a pooling part (random matching,
one pooled action) on [z_h, zbar]:

    sep  = int_{z_l}^{z_h} (A k z^(q+1) sigma(z)^a - beta sigma(z)^2 / z) g(z) dz
    pool = A k s_h^a E[z|z>=z_h] int_{z_h}^{zbar} z^q g(z) dz
           - beta s_h^2 int_{z_h}^{zbar} g(z)/z dz

Transfers cancel, so nothing here reads wages.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import thresholds
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import DomainError
from .model import ModelParams
from .quadrature import ABS_TOL, integrate, kronrod_estimate, kronrod_nodes
from .separating import SeparatingPath

_REL_TOL = 1e-8
# beyond zbar - this, the pooling part is treated as empty (see thresholds).
_TOP_GUARD = 1e-9


@dataclass(frozen=True)
class SurplusBreakdown:
    separating_part: float
    pooling_part: float
    total: float
    z_l: float
    z_h: float


def _net_density(
    p: ModelParams, d: SenderDist, z: np.ndarray, sig: np.ndarray
) -> np.ndarray:
    """Net surplus density (A k z^(q+1) sigma^a - beta sigma^2 / z) g(z)."""
    with np.errstate(invalid="ignore"):
        net = (
            p.A * p.k * np.power(z, p.q + 1.0) * np.power(sig, p.a)
            - p.beta_cost * sig**2 / z
        )
    # z = 0 can only occur with sigma = 0, where the density is 0 too.
    return np.where(z == 0.0, 0.0, net) * d.pdf(z)


def sep_part(
    p: ModelParams,
    d: SenderDist,
    path: SeparatingPath,
    z_lo: float,
    z_hi: float,
    rel_tol: float = _REL_TOL,
) -> float:
    """Net surplus density integrated over a slice of the separating region."""
    return integrate(
        lambda z: _net_density(p, d, z, path.sigma_many(z)), z_lo, z_hi, rel_tol=rel_tol
    )


def sep_cells(
    p: ModelParams,
    d: SenderDist,
    path: SeparatingPath,
    edges: np.ndarray,
    sig_edges: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Separating part over every cell (edges[k], edges[k+1]] in one batch.

    ``sig_edges`` holds sigma at the edges; interpolating it seeds the
    inversion at the cells' Kronrod nodes, so the whole batch is one
    ``sigma_many`` call. A cell whose K15/G7 error estimate misses
    ``sep_part``'s target (endpoint-singular densities) is integrated again
    adaptively. Returns the cell values and the number of such fallback cells.
    """

    def density(z: np.ndarray) -> np.ndarray:
        sig = path.sigma_many(z, seed=np.interp(z, edges, sig_edges))
        return _net_density(p, d, z, sig)

    lo, hi = edges[:-1], edges[1:]
    z, half = kronrod_nodes(lo, hi)
    vals, errs = kronrod_estimate(density(z), half)
    missed = np.flatnonzero(errs > np.maximum(ABS_TOL, _REL_TOL * np.abs(vals)))
    for k in missed:
        vals[k] = integrate(density, lo[k], hi[k], rel_tol=_REL_TOL)
    return vals, len(missed)


def pool_part(
    p: ModelParams,
    d: SenderDist,
    z_h: float | np.ndarray,
    s_h: float | np.ndarray,
    pm_q: float | np.ndarray | None = None,
    pm_inv: float | np.ndarray | None = None,
    ez: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Net surplus of the pooled tail, given the pooled action s_h.

    The 1/z integral is cut at EFFECTIVE_ZERO; with s_h = 0 the cost term is
    identically zero, which covers the degenerate pooling-at-zero case where
    the raw integral would diverge. Array-valued when z_h, s_h and the three
    tail integrals are passed as arrays, with every z_h below the top guard.
    """
    if np.ndim(z_h) == 0 and z_h >= d.zbar - _TOP_GUARD:
        return 0.0
    ez = d.trunc_mean(z_h) if ez is None else ez
    pm_q = d.partial_moment(z_h, p.q) if pm_q is None else pm_q
    gross = p.A * p.k * s_h**p.a * ez * pm_q
    if np.ndim(s_h) == 0 and s_h == 0.0:
        return gross
    if pm_inv is None:
        pm_inv = d.partial_moment(max(z_h, EFFECTIVE_ZERO), -1.0)
    return gross - p.beta_cost * s_h**2 * pm_inv


def pi_w(
    p: ModelParams,
    d: SenderDist,
    z_l: float,
    z_h: float,
    path: SeparatingPath | None = None,
) -> SurplusBreakdown:
    """Aggregate net surplus of the well-behaved equilibrium at (z_l, z_h).

    Pass ``path`` to reuse a separating path already anchored at z_l.
    """
    if not 0.0 <= z_l <= z_h <= d.zbar * (1.0 + 1e-12):
        raise DomainError(f"need 0 <= z_l <= z_h <= zbar, got ({z_l}, {z_h})")
    if path is not None and path.z_l != z_l:
        raise DomainError("path anchored at a different z_l")
    if z_h <= z_l:
        s_star, _ = thresholds.pooling_star(p, d, z_l)
        pool = pool_part(p, d, z_l, s_star)
        return SurplusBreakdown(0.0, pool, pool, z_l, z_h)
    if path is None:
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
