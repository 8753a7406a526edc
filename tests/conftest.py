from __future__ import annotations

import numpy as np
import pytest

from delegate_opt import ModelParams, SenderDist, SeparatingPath
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.quadrature import ABS_TOL, integrate, kronrod_estimate, kronrod_nodes
from delegate_opt.surplus import _REL_TOL, _net_density, pool_part
from delegate_opt.thresholds import pooled_action_many, pooling_star

BASELINE_SHAPES = ((1, 1), (5, 5), (3, 5), (5, 3))


@pytest.fixture
def baseline() -> ModelParams:
    return ModelParams()


@pytest.fixture
def uniform3() -> SenderDist:
    return SenderDist(1, 1, 3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_admissible(rng: np.random.Generator) -> ModelParams:
    """Random parameter draw inside the admissible box."""
    return ModelParams(
        A=float(rng.uniform(0.5, 2.0)),
        beta_cost=float(rng.uniform(0.2, 1.0)),
        a=float(rng.uniform(0.0, 0.9)),
        k=float(rng.uniform(0.5, 2.0)),
        q=float(rng.uniform(0.0, 2.0)),
    )


def sep_cells(
    p: ModelParams, d: SenderDist, path: SeparatingPath, edges: np.ndarray
) -> tuple[np.ndarray, int]:
    """Separating part over every cell (edges[k], edges[k+1]] in one batch.

    One K15 panel per cell, all nodes in one ``sigma_many`` call. A cell whose
    K15/G7 error estimate misses ``sep_part``'s target (endpoint-singular
    densities) is integrated again adaptively. Returns the cell values and
    the number of such fallback cells.
    """

    def density(z: np.ndarray) -> np.ndarray:
        return _net_density(p, d, z, path.sigma_many(z))

    lo, hi = edges[:-1], edges[1:]
    z, half = kronrod_nodes(lo, hi)
    vals, errs = kronrod_estimate(density(z), half)
    missed = np.flatnonzero(errs > np.maximum(ABS_TOL, _REL_TOL * np.abs(vals)))
    for k in missed:
        vals[k] = integrate(density, lo[k], hi[k], rel_tol=_REL_TOL)
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
    pm_q = np.array([d.partial_moment(z, p.q) for z in grid[:-1]] + [0.0])
    pm_inv = np.array(
        [d.partial_moment(max(z, EFFECTIVE_ZERO), -1.0) for z in grid[:-1]] + [0.0]
    )
    values = np.full((n, n), np.nan)
    for i in range(n - 1):
        path = SeparatingPath(p, grid[i], d.zbar)
        cells, _ = sep_cells(p, d, path, grid[i:])
        cum = np.cumsum(cells)
        s_star, _ = pooling_star(p, d, grid[i])
        # Sliced after the solve: the last row has no interior column, and
        # sigma_many's Newton stop test cannot reduce an empty array.
        sig = path.sigma_many(grid[i + 1:])[:-1]
        s_h = pooled_action_many(p, sig, grid[i + 1:-1], ez[i + 1:-1])
        pool = pool_part(
            p, d, grid[i:-1], np.concatenate(([s_star], s_h)),
            pm_q[i:-1], pm_inv[i:-1], ez[i:-1],
        )
        values[i, i] = pool[0]
        values[i, i + 1:-1] = cum[:-1] + pool[1:]
        values[i, -1] = cum[-1]
    values[-1, -1] = 0.0  # empty market corner
    return values
