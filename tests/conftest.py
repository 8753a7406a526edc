from __future__ import annotations

import numpy as np
import pytest

from delegate_opt import ModelParams, SenderDist, SeparatingPath
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.surplus import pool_part, sep_cells
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


def brute_force_triangle(p: ModelParams, d: SenderDist, n: int) -> np.ndarray:
    """Objective on the full grid triangle {0 <= z_l <= z_h <= zbar}, NaN below it.

    The test-time reference for ``optimize``, which scans only the z_l = 0
    edge and the pooling diagonal. Row i holds Pi_w(grid[i], grid[j]) for
    j > i and the pooling value Pi_p(grid[i]) on the diagonal, built one row
    at a time from the public layers.
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
        sig_knots = np.concatenate(([path.s_l], path.sigma_many(grid[i + 1:])))
        cells, _ = sep_cells(p, d, path, grid[i:], sig_knots)
        cum = np.cumsum(cells)
        s_star, _ = pooling_star(p, d, grid[i])
        s_h = pooled_action_many(p, sig_knots[1:-1], grid[i + 1:-1], ez[i + 1:-1])
        pool = pool_part(
            p, d, grid[i:-1], np.concatenate(([s_star], s_h)),
            pm_q[i:-1], pm_inv[i:-1], ez[i:-1],
        )
        values[i, i] = pool[0]
        values[i, i + 1:-1] = cum[:-1] + pool[1:]
        values[i, -1] = cum[-1]
    values[-1, -1] = 0.0  # empty market corner
    return values
