"""Maximize aggregate net surplus over the threshold triangle.

The optimum of {0 <= z_l <= z_h <= zbar} lies on the z_l = 0 edge
(Pi_w(0, z_h)) or on the pooling diagonal (Pi_p(z)), so only those two lines
are searched. Stage one scans both on a regular grid, 2n - 1 cells in all.
Stage two refines both by golden-section search in one dimension: along the
edge from its best cell and along the diagonal from its best cell. The grid
best's own branch comes first; the other branch replaces its result only if
it wins by more than the tie tolerance. Everything is deterministic;
rerunning a configuration reproduces the result bitwise.

The edge scan is one batch: one K15 panel per cell, all cells in one
``sigma_many`` call, summed along z_h (cells whose error estimate misses the
target fall back to adaptive quadrature), plus one array root solve for the
pooled actions. The diagonal is one array expression for the pooled action
s*(z). The pooling-tail integrals depend on z_h only (cached per column); a
column whose tail is too thin for a conditional mean holds no pooling value
(NaN) and is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import surplus as sp
from . import thresholds as th
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import ConfigError, ConvergenceError, DegenerateTailError
from .model import ModelParams
from .separating import SeparatingPath

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-9
_FLAT_TOL = 1e-10
_CERT_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerOptions:
    grid: int = 61
    tol: float = 1e-6
    refine: str = "auto"  # auto | none

    def __post_init__(self) -> None:
        if self.grid < 3:
            raise ConfigError("grid resolution must be at least 3")
        if self.refine not in ("auto", "none"):
            raise ConfigError(f"unknown refine method {self.refine!r}")


@dataclass(frozen=True)
class DelegationOutcome:
    thresholds: th.Thresholds
    interval: tuple[float, float]
    surplus: sp.SurplusBreakdown
    percentile_zh: float
    diagnostics: dict = field(compare=False)


class _Scan:
    """Objective values on the z_l = 0 edge and the pooling diagonal.

    ``edge[j]`` is Pi_w(0, grid[j]) and ``diag[i]`` is Pi_p(grid[i]); the
    corner (0, 0) lies on both. Cached per optimize() call.
    """

    def __init__(self, p: ModelParams, d: SenderDist, n: int):
        self.p, self.d, self.n = p, d, n
        self.grid = np.linspace(0.0, d.zbar, n)
        self.edge = np.full(n, np.nan)
        self.diag = np.full(n, np.nan)
        self.n_evals = 2 * n - 1
        self.n_fallback = 0
        # Column data: tail integrals depend on z_h alone. A column whose tail
        # is too thin for a conditional mean keeps NaN: it holds no pooling value.
        self.ez = np.full(n, np.nan)
        self.pm_q = np.full(n, np.nan)
        self.pm_inv = np.full(n, np.nan)
        for j in range(n - 1):
            z = self.grid[j]
            try:
                self.ez[j] = d.trunc_mean(z)
            except DegenerateTailError:
                continue
            self.pm_q[j] = d.partial_moment(z, p.q)
            self.pm_inv[j] = d.partial_moment(max(z, EFFECTIVE_ZERO), -1.0)
        self.ez[n - 1] = d.zbar
        self.pm_q[n - 1] = 0.0
        self.pm_inv[n - 1] = 0.0

    def run(self) -> None:
        p, d, grid = self.p, self.d, self.grid
        ez, pm_q, pm_inv = self.ez[:-1], self.pm_q[:-1], self.pm_inv[:-1]
        # Diagonal: pooling_star's pooled action s*(z), zero at the z = 0 corner.
        s_star = (
            grid[:-1] ** (p.q + 1.0) * p.A * p.k * ez / p.beta_cost
        ) ** (1.0 / (2.0 - p.a))
        s_star[grid[:-1] < EFFECTIVE_ZERO] = 0.0
        self.diag[:-1] = sp.pool_part(p, d, grid[:-1], s_star, pm_q, pm_inv, ez)
        self.diag[-1] = 0.0  # empty market corner
        # Edge: separating cells (0, z_j] in one batch, pooled at s_h(z_j) in
        # between; the z_h = zbar column has no pooling part.
        path = SeparatingPath(p, 0.0, d.zbar)
        sig_knots = np.concatenate(([path.s_l], path.sigma_many(grid[1:])))
        cells, self.n_fallback = sp.sep_cells(p, d, path, grid, sig_knots)
        cum = np.cumsum(cells)
        pools = np.isfinite(ez[1:])
        s_h = np.full(self.n - 2, np.nan)
        s_h[pools] = th.pooled_action_many(
            p, sig_knots[1:-1][pools], grid[1:-1][pools], ez[1:][pools]
        )
        pool = sp.pool_part(p, d, grid[1:-1], s_h, pm_q[1:], pm_inv[1:], ez[1:])
        self.edge[0] = self.diag[0]
        self.edge[1:-1] = cum[:-1] + pool
        self.edge[-1] = cum[-1]

    def best(self) -> tuple[int, int, float, bool, bool]:
        """Best scanned cell: value first, then larger z_h, then smaller z_l."""
        n = self.n
        ii = np.concatenate((np.zeros(n, dtype=int), np.arange(1, n)))
        jj = np.concatenate((np.arange(n), np.arange(1, n)))
        values = np.concatenate((self.edge, self.diag[1:]))
        vmax = np.nanmax(values)
        tied = np.flatnonzero(values >= vmax - _TIE_TOL)
        k = min(tied, key=lambda t: (-jj[t], ii[t]))
        i, j = int(ii[k]), int(jj[k])
        near = np.flatnonzero(values >= vmax - _FLAT_TOL)
        flat = bool(np.any((np.abs(ii[near] - i) > 1) | (np.abs(jj[near] - j) > 1)))
        return i, j, float(values[k]), len(tied) > 1, flat

    def best_edge_column(self) -> int:
        """Best column j >= 1 of the z_l = 0 edge, the larger z_h on ties."""
        return _last_best(self.edge[1:]) + 1

    def best_diagonal_cell(self) -> int:
        """Best cell of the pooling diagonal, the larger z on ties."""
        return _last_best(self.diag)


def _last_best(values: np.ndarray) -> int:
    """Last index within the tie tolerance of the maximum; NaN never counts."""
    return int(np.flatnonzero(values >= np.nanmax(values) - _TIE_TOL)[-1])


def _golden_max(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float, int]:
    """Deterministic golden-section maximization on [a, b]."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    n = 2
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        n += 1
    x = 0.5 * (a + b)
    return x, f(x), n + 1


def optimize(
    p: ModelParams, d: SenderDist, opts: OptimizerOptions | None = None
) -> DelegationOutcome:
    """Solve the planner's problem: argmax of the net surplus over thresholds."""
    opts = opts or OptimizerOptions()
    sweep = _Scan(p, d, opts.grid)
    sweep.run()
    gi, gj, g_val, tie_break, flat = sweep.best()
    grid = sweep.grid
    z_l, z_h, val = grid[gi], grid[gj], g_val
    method = "none"
    refine_evals = 0

    # A refined point replaces the current optimum only when it wins by more
    # than the tie tolerance; on noise-flat plateaus the structured grid
    # point (e.g. the exact pooling corner) is kept.
    if opts.refine != "none":
        # Each line is searched around its own best cell; the grid best's own
        # line goes first.
        top = opts.grid - 1
        i, j = sweep.best_diagonal_cell(), sweep.best_edge_column()
        diagonal = (
            "golden-diagonal", lambda z: (z, z),
            grid[max(i - 1, 0)], min(grid[min(i + 1, top)], d.zbar * (1.0 - 1e-12)),
        )
        edge = ("golden-edge", lambda z: (0.0, z), grid[j - 1], grid[min(j + 1, top)])
        branches = (diagonal, edge) if gi == gj else (edge, diagonal)
        method = branches[0][0]
        for name, point, a, b in branches:
            z, v, n_evals = _golden_max(
                lambda x: sp.pi_w(p, d, *point(x)).total, a, b, opts.tol
            )
            refine_evals += n_evals
            if v > val + _TIE_TOL:
                (z_l, z_h), val, method = point(z), v, name
    record = th.resolve(p, d, z_l, z_h)
    breakdown = sp.pi_w(p, d, record.z_l, record.z_h)
    diagnostics = {
        "grid": opts.grid,
        "grid_best": {"z_l": float(grid[gi]), "z_h": float(grid[gj]), "value": g_val},
        "refine_method": method,
        "refine_evals": refine_evals,
        "n_grid_evals": sweep.n_evals,
        "grid_fallback_cells": sweep.n_fallback,
        "tie_break_applied": tie_break,
        "flat_objective": flat,
        "certificate": float(breakdown.total - g_val),
    }
    if breakdown.total < g_val - _CERT_TOL:
        raise ConvergenceError(
            f"refined optimum {breakdown.total} fell below the grid value {g_val}"
        )
    return DelegationOutcome(
        thresholds=record,
        interval=(record.t_l, record.t_h),
        surplus=breakdown,
        percentile_zh=d.cdf(record.z_h),
        diagnostics=diagnostics,
    )
