from __future__ import annotations

import numpy as np
import pytest
from scipy.special import roots_legendre

from delegate_opt import ModelParams, SenderDist, SeparatingPath
from delegate_opt.quadrature import ABS_TOL, REL_TOL
from delegate_opt.surplus import line_pass, pool_part, sep_part
from delegate_opt.thresholds import _pooled_action_rhs, pooling_star

BASELINE_SHAPES = ((1, 1), (5, 5), (3, 5), (5, 3))
# The design shapes plus an endpoint-singular one and a U-shaped one.
AGREEMENT_SHAPES = BASELINE_SHAPES + ((2, 0.5), (0.7, 0.7))
# Gauss-Legendre rules on [-1, 1]: the 20-point rule gives a cell's value and
# the 10-point rule its error estimate.
_X20, _W20 = roots_legendre(20)
_X10, _W10 = roots_legendre(10)


@pytest.fixture
def baseline() -> ModelParams:
    return ModelParams()


@pytest.fixture
def uniform3() -> SenderDist:
    return SenderDist(1, 1, 3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def edge_pass(p: ModelParams, d: SenderDist, z, side=None):
    """``line_pass`` of p on the z_l = 0 edge of d."""
    return line_pass(SeparatingPath(p, 0.0, d.zbar), d, z, side=side)


def random_admissible(rng: np.random.Generator) -> ModelParams:
    """Random parameter draw inside the admissible box."""
    return ModelParams(
        A=float(rng.uniform(0.5, 2.0)),
        beta_cost=float(rng.uniform(0.2, 1.0)),
        a=float(rng.uniform(0.0, 0.9)),
        k=float(rng.uniform(0.5, 2.0)),
        q=float(rng.uniform(0.0, 2.0)),
    )


# The model's analytic partials, for the consistency checks of the tests; no
# package code differentiates v or c.
def v_s(p: ModelParams, x, s, z):
    """dv/ds = a A s^(a-1) x z; identically 0 in the pure-signaling case."""
    if p.a == 0.0:
        return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0
    return p.a * p.A * np.power(s, p.a - 1.0) * x * z


def v_z(p: ModelParams, x, s, z):
    """dv/dz = A s^a x."""
    return p.A * np.power(s, p.a) * x


def c_s(p: ModelParams, s, z):
    """dc/ds = 2 beta s / z."""
    return 2.0 * p.beta_cost * np.asarray(s, dtype=float) / z if np.ndim(s) else (
        2.0 * p.beta_cost * s / z
    )


def c_z(p: ModelParams, s, z):
    """dc/dz = -beta s^2 / z^2."""
    return -p.beta_cost * np.power(s, 2.0) / np.asarray(z, dtype=float) ** 2


def mu_prime(path: SeparatingPath, s):
    """d mu / d s on the path, analytic from the closed form of mu^(2+q);
    the ODE checks' reference, as no package code differentiates mu."""
    p, q2 = path.params, 2.0 + path.params.q
    s = np.asarray(s, dtype=float)
    poly_prime = (2.0 - p.a) * path.c1 * np.power(s, 1.0 - p.a)
    if path._kappa != 0.0 and p.a != 0.0:
        poly_prime = poly_prime - p.a * q2 * path._kappa * np.power(s, -p.a * q2 - 1.0)
    out = poly_prime / (q2 * np.power(path.mu_tilde(s), q2 - 1.0))
    return float(out) if out.ndim == 0 else out


def sep_cells(
    p: ModelParams, d: SenderDist, path: SeparatingPath, edges: np.ndarray
) -> tuple[np.ndarray, int]:
    """Separating part over every cell (edges[k], edges[k+1]] in one batch.

    The net surplus density (A k z^(q+1) sigma^a - beta sigma^2 / z) g(z) is
    integrated over the type by a G20 rule per cell, with the G10 rule as the
    error estimate; all nodes go through one ``sigma_many`` call. A cell whose
    estimate misses the package's quadrature target (endpoint-singular
    densities) is handed to the public ``sep_part``. Returns the cell values
    and the number of such fallback cells.
    """
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = np.concatenate((_X20, _X10))
    z = np.multiply.outer(nodes, half) + 0.5 * (lo + hi)
    sig = path.sigma_many(z)
    fz = (
        p.A * p.k * z ** (p.q + 1.0) * sig**p.a - p.beta_cost * sig**2 / z
    ) * d.pdf(z)
    vals = half * (_W20 @ fz[:20])
    err = np.abs(vals - half * (_W10 @ fz[20:]))
    missed = np.flatnonzero(err > np.maximum(ABS_TOL, REL_TOL * np.abs(vals)))
    for k in missed:
        vals[k] = sep_part(p, d, path, lo[k], hi[k])
    return vals, len(missed)


def brute_force_triangle(p: ModelParams, d: SenderDist, n: int) -> np.ndarray:
    """Objective on the full grid triangle {0 <= z_l <= z_h <= zbar}, NaN below it.

    The test-time reference for ``optimize``, which scans only the z_l = 0
    edge and the pooling diagonal. Row i holds Pi_w(grid[i], grid[j]) for
    j > i and the pooling value Pi_p(grid[i]) on the diagonal, built one row
    at a time: ``sep_cells`` summed along z_h, plus the public pooling layers.
    """
    grid = np.linspace(0.0, d.zbar, n)
    ez = np.array([d.trunc_mean(z) for z in grid[:-1]] + [d.zbar])
    values = np.full((n, n), np.nan)
    for i in range(n - 1):
        path = SeparatingPath(p, grid[i], d.zbar)
        cells, _ = sep_cells(p, d, path, grid[i:])
        cum = np.cumsum(cells)
        s_star, _ = pooling_star(p, d, grid[i])
        z_h = grid[i + 1:-1]  # empty on the last row
        s_h = _pooled_action_rhs(p, path.sigma_many(z_h), z_h, ez[i + 1:-1])[0]
        pool = pool_part(p, d, grid[i:-1], np.concatenate(([s_star], s_h)))
        values[i, i] = pool[0]
        values[i, i + 1:-1] = cum[:-1] + pool[1:]
        values[i, -1] = cum[-1]
    values[-1, -1] = 0.0  # empty market corner
    return values
