"""Maximize aggregate net surplus over the threshold triangle.

The optimum of {0 <= z_l <= z_h <= zbar} lies on the z_l = 0 edge
(Pi_w(0, z_h)) or on the pooling diagonal (Pi_p(z)), so only those two lines
are searched, each through one array-valued objective (``surplus.pi_w_edge``
and ``surplus.pi_p_many``). Stage one scans both on a regular grid, 2n - 1
cells in all, one objective call per line. Stage two refines both lines in
batches, from the best cell of each: a zoom round of _ZOOM points across the
two grid cells around it, then safeguarded parabolic steps, each evaluating a
three-point stencil of width tol, until a stencil's middle is its best point.
That takes three objective calls on most lines. The grid best's own branch
comes first; the other branch replaces its result only if it wins by more
than the tie tolerance. Everything is deterministic; rerunning a
configuration reproduces the result bitwise.

On the edge the separating part is ``surplus.sep_part``'s closed form and
the pooled actions come from one array root solve; on the diagonal the
pooled action s*(z) is one array expression. The pooling-tail integrals are
``SenderDist.tail_moments``, computed once for the scanned grid, which both
lines share, and once per refinement batch. No stage calls adaptive
quadrature.
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

_ZOOM = 25  # points per zoom round; odd, so a centred best cell is one of them
_MAX_ROUNDS = 100
# Relative size a stencil's second difference needs to stand clear of rounding.
_NOISE = 1e-12
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
    pi_s: float  # full delegation, Pi_w(0, zbar): the edge scan's last cell
    diagnostics: dict = field(compare=False)


class _Scan:
    """Objective values on the z_l = 0 edge and the pooling diagonal.

    ``edge[j]`` is Pi_w(0, grid[j]) and ``diag[i]`` is Pi_p(grid[i]); the
    corner (0, 0) lies on both.
    """

    def __init__(self, p: ModelParams, d: SenderDist, n: int):
        self.n = n
        self.grid = np.linspace(0.0, d.zbar, n)
        self.n_evals = 2 * n - 1
        moments = d.tail_moments(self.grid, p.q)
        self.diag = sp.pi_p_many(p, d, self.grid, moments)
        edge = sp.pi_w_edge(p, d, self.grid[1:], tuple(m[1:] for m in moments))
        self.edge = np.concatenate((self.diag[:1], edge))

    def best(self) -> tuple[int, int, float, bool, bool]:
        """Best scanned cell: value first, then larger z_h, then smaller z_l."""
        n = self.n
        ii = np.concatenate((np.zeros(n, dtype=int), np.arange(1, n)))
        jj = np.concatenate((np.arange(n), np.arange(1, n)))
        values = np.concatenate((self.edge, self.diag[1:]))
        vmax = values.max()
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
    """Last index within the tie tolerance of the maximum."""
    return int(np.flatnonzero(values >= values.max() - _TIE_TOL)[-1])


def _vertex(x: np.ndarray, f: np.ndarray) -> float | None:
    """Vertex of the parabola through three points, None unless it is concave."""
    s01 = (f[1] - f[0]) / (x[1] - x[0])
    s12 = (f[2] - f[1]) / (x[2] - x[1])
    curve = (s12 - s01) / (x[2] - x[0])
    if not curve < 0.0:
        return None
    return 0.5 * (x[0] + x[1]) - s01 / (2.0 * curve)


def _refine_max(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float
) -> tuple[float, float, int]:
    """Maximize a unimodal objective on [lo, hi] to within tol, in batches.

    ``f`` maps an array of points to their values. The bracket is the
    interval between the best point's neighbours among all points evaluated
    so far. A parabolic round evaluates the stencil
    {v - tol/2, v, v + tol/2}, clipped to the bracket, around the vertex v of
    a parabola: through the last stencil (a Newton step), or after a zoom
    through the best point and its neighbours. It runs when that parabola is
    concave with v inside the bracket and the step to v is less than half
    the step before last (Brent's safeguard); otherwise a zoom round
    evaluates _ZOOM points across the bracket. The search stops once the
    bracket is at most tol wide or a stencil's middle is the best point: for
    a unimodal objective the argmax then lies within tol of it. Returns the
    best point, its value and the number of distinct points evaluated.
    """
    x = np.linspace(lo, hi, _ZOOM)
    fx = f(x)
    xs, fs = x, fx
    steps = [hi - lo, hi - lo]
    v = None
    for _ in range(_MAX_ROUNDS):
        k = int(np.argmax(fs))
        left, right = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
        if right - left <= tol or xs[k] == v:
            return float(xs[k]), float(fs[k]), xs.size
        v = None
        if x.size == 3 and abs(fx[0] - 2.0 * fx[1] + fx[2]) >= _NOISE * abs(fx[1]):
            v = _vertex(x, fx)
        elif 0 < k < xs.size - 1:
            v = _vertex(xs[k - 1:k + 2], fs[k - 1:k + 2])
        if v is not None and left < v < right and abs(v - xs[k]) < 0.5 * steps[-2]:
            steps.append(abs(v - xs[k]))
            x = np.array([v - 0.5 * tol, v, v + 0.5 * tol])
            x = x[(x > left) & (x < right)]
        else:
            v = None
            steps.append(right - left)
            x = np.linspace(left, right, _ZOOM)[1:-1]
        fx = f(x)
        # A point evaluated twice keeps its first value.
        xs, first = np.unique(np.concatenate((xs, x)), return_index=True)
        fs = np.concatenate((fs, fx))[first]
    raise ConvergenceError(f"refinement on [{lo}, {hi}] did not converge")


def optimize(
    p: ModelParams, d: SenderDist, opts: OptimizerOptions | None = None
) -> DelegationOutcome:
    """Solve the planner's problem: argmax of the net surplus over thresholds."""
    opts = opts or OptimizerOptions()
    sweep = _Scan(p, d, opts.grid)
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
        # line goes first. Both brackets start at EFFECTIVE_ZERO at the
        # lowest: resolve snaps any point below it to the z = 0 corner, where
        # the pooled value s*^a drops to 0^a = 0 for a tiny positive a.
        top = opts.grid - 1
        i, j = sweep.best_diagonal_cell(), sweep.best_edge_column()
        diagonal = (
            "golden-diagonal", lambda z: (z, z),
            lambda z: sp.pi_p_many(p, d, z, d.tail_moments(z, p.q)),
            max(grid[max(i - 1, 0)], EFFECTIVE_ZERO),
            min(grid[min(i + 1, top)], d.zbar * (1.0 - 1e-12)),
        )
        edge = (
            "golden-edge", lambda z: (0.0, z),
            lambda z: sp.pi_w_edge(p, d, z, d.tail_moments(z, p.q)),
            max(grid[j - 1], EFFECTIVE_ZERO), grid[min(j + 1, top)],
        )
        branches = (diagonal, edge) if gi == gj else (edge, diagonal)
        method = branches[0][0]
        for name, point, objective, a, b in branches:
            z, v, n_evals = _refine_max(objective, a, b, opts.tol)
            refine_evals += n_evals
            if v > val + _TIE_TOL:
                (z_l, z_h), val, method = point(z), v, name
    record = th.resolve(p, d, z_l, z_h)
    breakdown = sp.surplus_of(p, d, record)
    diagnostics = {
        "grid": opts.grid,
        "grid_best": {"z_l": float(grid[gi]), "z_h": float(grid[gj]), "value": g_val},
        "refine_method": method,
        "refine_evals": refine_evals,
        "n_grid_evals": sweep.n_evals,
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
        pi_s=float(sweep.edge[-1]),
        diagnostics=diagnostics,
    )
