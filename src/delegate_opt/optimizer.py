"""Maximize aggregate net surplus over the threshold triangle.

Stage one evaluates the objective on a regular grid over
{0 <= z_l <= z_h <= zbar}, including the pooling diagonal and the separating
edge. Stage two refines by golden-section search in one dimension: along the
pooling diagonal when the grid optimum lies on it, otherwise along the
z_l = 0 edge from its best grid cell. Everything is deterministic; rerunning
a configuration reproduces the result bitwise.

The grid stage works one row z_l at a time, in batches. The pooling-tail
integrals depend on z_h only (cached per column). The separating integral is
cumulative in z_h: one K15 panel per cell, all cells of the row in one
``sigma_many`` call, summed along the row (cells whose error estimate misses
the target fall back to adaptive quadrature). The row's pooled actions come
from one array root solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import surplus as sp
from . import thresholds as th
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import ConfigError, ConvergenceError
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


class _GridSweep:
    """Objective values on the triangular grid, cached per optimize() call."""

    def __init__(self, p: ModelParams, d: SenderDist, n: int):
        self.p, self.d, self.n = p, d, n
        self.grid = np.linspace(0.0, d.zbar, n)
        self.values = np.full((n, n), np.nan)
        self.n_evals = 0
        self.n_fallback = 0
        # Column data: tail integrals depend on z_h alone.
        self.ez = np.empty(n)
        self.pm_q = np.empty(n)
        self.pm_inv = np.empty(n)
        for j in range(n - 1):
            z = self.grid[j]
            self.ez[j] = d.trunc_mean(z)
            self.pm_q[j] = d.partial_moment(z, p.q)
            self.pm_inv[j] = d.partial_moment(max(z, EFFECTIVE_ZERO), -1.0)
        self.ez[n - 1] = d.zbar
        self.pm_q[n - 1] = 0.0
        self.pm_inv[n - 1] = 0.0

    def run(self) -> None:
        p, d, n, grid = self.p, self.d, self.n, self.grid
        for i in range(n - 1):
            path = SeparatingPath(p, grid[i], d.zbar)
            # Actions at the row's knots z_l = grid[i] < grid[i+1] < ... < zbar.
            sig_knots = np.concatenate(([path.s_l], path.sigma_many(grid[i + 1:])))
            cells, fallback = sp.sep_cells(p, d, path, grid[i:], sig_knots)
            self.n_fallback += fallback
            cum = np.cumsum(cells)
            # Pooling parts along the row: the diagonal pools at s*(z_l), the
            # interior columns at s_h(z_h); the z_h = zbar column has none.
            s_star, _ = th.pooling_star(p, d, grid[i])
            s_h = th.pooled_action_many(
                p, sig_knots[1:-1], grid[i + 1:-1], self.ez[i + 1:-1]
            )
            pool = sp.pool_part(
                p, d, grid[i:-1], np.concatenate(([s_star], s_h)),
                self.pm_q[i:-1], self.pm_inv[i:-1], self.ez[i:-1],
            )
            self.values[i, i] = pool[0]
            self.values[i, i + 1:-1] = cum[:-1] + pool[1:]
            self.values[i, -1] = cum[-1]
            self.n_evals += n - i
        self.values[-1, -1] = 0.0  # empty market corner
        self.n_evals += 1

    def best(self) -> tuple[int, int, float, bool, bool]:
        """Best cell under the tie rule: value, then larger z_h, then smaller z_l."""
        vmax = np.nanmax(self.values)
        ii, jj = np.where(self.values >= vmax - _TIE_TOL)
        order = sorted(range(len(ii)), key=lambda t: (-jj[t], ii[t]))
        i, j = int(ii[order[0]]), int(jj[order[0]])
        tie_break = len(ii) > 1
        near = np.argwhere(self.values >= vmax - _FLAT_TOL)
        flat = any(
            abs(int(a) - i) > 1 or abs(int(b) - j) > 1 for a, b in near
        )
        return i, j, float(self.values[i, j]), tie_break, flat

    def best_edge_column(self) -> int:
        """Best column j >= 1 of the z_l = 0 edge, the larger z_h on ties."""
        row = self.values[0, 1:]
        return int(np.flatnonzero(row >= np.max(row) - _TIE_TOL)[-1]) + 1


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
    sweep = _GridSweep(p, d, opts.grid)
    sweep.run()
    gi, gj, g_val, tie_break, flat = sweep.best()
    grid = sweep.grid
    z_l, z_h, val = grid[gi], grid[gj], g_val
    method = "none"
    refine_evals = 0

    def value(z_lo: float, z_hi: float) -> float:
        return sp.pi_w(p, d, z_lo, z_hi).total

    # A refined point replaces the grid optimum only when it wins by more
    # than the tie tolerance; on noise-flat plateaus the structured grid
    # point (e.g. the exact pooling corner) is kept.
    if opts.refine != "none":
        if gi == gj:
            # Pooling diagonal: one-dimensional in the common threshold.
            a = grid[max(gi - 1, 0)]
            b = grid[min(gi + 1, opts.grid - 1)]
            z_star, v, refine_evals = _golden_max(
                lambda z: value(z, z), a, min(b, d.zbar * (1.0 - 1e-12)), opts.tol
            )
            method = "golden-diagonal"
            if v > val + _TIE_TOL:
                z_l = z_h = z_star
                val = v
        else:
            # Off the diagonal, search the z_l = 0 edge. An interior grid
            # optimum lies on a ridge that stays flat in z_l down to the edge,
            # so the edge's own best cell seeds the search.
            j = gj if gi == 0 else sweep.best_edge_column()
            a = grid[j - 1]
            b = grid[min(j + 1, opts.grid - 1)]
            z_top, v, refine_evals = _golden_max(
                lambda z: value(0.0, z), a, b, opts.tol
            )
            method = "golden-edge"
            if v > val + _TIE_TOL:
                z_l, z_h, val = 0.0, z_top, v
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
