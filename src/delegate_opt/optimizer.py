"""Maximize aggregate net surplus over the threshold triangle.

The optimum of {0 <= z_l <= z_h <= zbar} lies on the z_l = 0 edge Pi_w(0, z_h)
or on the pooling diagonal Pi_p(z). Each line has one array objective
(``surplus.pi_w_edge``, ``surplus.pi_p_many``) giving its value and closed-form
slope. Stage one scans both on a grid, 2n - 1 cells in all. Stage two solves
for a root of each line's slope in the grid cells around its best cell, both
lines in lockstep, from the root of the quintic Hermite fit of those cells'
values and slopes; a root replaces the current optimum whenever its value is
higher, the grid best's own line first. No stage calls adaptive quadrature,
and reruns reproduce a result bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import surplus as sp
from . import thresholds as th
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import ConfigError, ConvergenceError
from .model import ModelParams

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
    """Objective values and slopes on the z_l = 0 edge and the pooling diagonal.

    ``edge[j]`` is Pi_w(0, grid[j]) and ``diag[i]`` is Pi_p(grid[i]); the
    corner (0, 0) lies on both.
    """

    def __init__(self, p: ModelParams, d: SenderDist, n: int):
        self.n = n
        self.grid = np.linspace(0.0, d.zbar, n)
        self.n_evals = 2 * n - 1
        moments = d.tail_moments(self.grid, p.q)
        self.diag, self.diag_slope = sp.pi_p_many(p, d, self.grid, moments)
        edge = sp.pi_w_edge(p, d, self.grid[1:], tuple(m[1:] for m in moments))
        self.edge = np.concatenate((self.diag[:1], edge[0]))
        self.edge_slope = np.concatenate((self.diag_slope[:1], edge[1]))

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


def _iqi(z, s) -> float:
    """Root of the quadratic z(s) through three points (Brent's inverse
    quadratic interpolation); NaN unless the three slopes are distinct."""
    if len(set(s)) < 3:
        return np.nan
    return sum(z[i] * s[i - 1] * s[i - 2] / ((s[i] - s[i - 1]) * (s[i] - s[i - 2]))
               for i in range(3))


def _hermite(z, f, s) -> float:
    """Root of the slope of the quintic Hermite interpolant through three
    (z, f, s), in the cell the middle slope points into; NaN unless the z
    are equally spaced and all values finite."""
    (z0, z1, z2), (f0, f1, f2), (s0, s1, s2) = (map(float, w) for w in (z, f, s))
    h = 0.5 * (z2 - z0)
    if not abs(z1 - z0 - h) <= 1e-9 * h or not math.isfinite(f0 + f1 + f2 + s0 + s1 + s2):
        return np.nan
    # P(t) = f1 + g1 t + c2 t^2 + c3 t^3 + c4 t^4 + c5 t^5, t = (z - z1)/h.
    g0, g1, g2 = h * s0, h * s1, h * s2
    even, odd = 0.5 * (f2 + f0) - f1, 0.5 * (f2 - f0) - g1
    c4, c5 = 0.25 * (g2 - g0) - even, 0.5 * (0.5 * (g2 + g0) - g1 - 3.0 * odd)
    c2, c3 = even - c4, odd - c5
    a, b = (0.0, 1.0) if g1 > 0.0 else (-1.0, 0.0)
    t = 0.5 * (a + b)
    for _ in range(60):  # Newton on P'(t), safeguarded by bisection
        slope = g1 + t * (2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4 + t * 5.0 * c5)))
        a, b = (t, b) if slope > 0.0 else (a, t)
        curve = 2.0 * c2 + t * (6.0 * c3 + t * (12.0 * c4 + t * 20.0 * c5))
        t_new = t - slope / curve if curve else a
        t_new = t_new if a < t_new < b else 0.5 * (a + b)
        if abs(t_new - t) <= 1e-15:
            break
        t = t_new
    return z1 + h * t_new


def _root_search(z: np.ndarray, f: np.ndarray, s: np.ndarray, tol: float):
    """Bracketed root of a line's slope: a generator that yields each round's
    points and is sent back their (values, slopes).

    ``z``, ``f``, ``s`` hold the line's best grid cell and its neighbours; an
    end pulled inside [EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO], where
    ``classify`` snaps, has a NaN slope that a first round fills. The bracket
    is the cell the best cell's slope points into. A round evaluates v and
    v -/+ tol/2; a sign change of the slope across them ends the search on
    their best point. The first v is the Hermite seed (``_hermite``), or at a
    clipped or repeated grid end the root of the quadratic z(s) through the
    three slopes; each later v that through the outer two and the far end
    (Brent 1973). Outside the bracket, regula falsi, or bisection (in log z
    past a factor 4) if the last round did not halve it. Returns (z, value,
    slope, root); with no sign change across the bracket, its better end
    (root False).
    """
    nan = np.isnan(s)
    if nan.any():
        x, back = np.unique(z[nan], return_inverse=True)
        fx, sx = yield x
        f[nan], s[nan] = fx[back], sx[back]
    k = 1 if s[1] > 0.0 else 0
    lo, hi = (z[k], f[k], s[k]), (z[k + 1], f[k + 1], s[k + 1])
    if not lo[2] > 0.0 > hi[2]:
        return (*max((lo, hi), key=lambda pt: pt[1]), False)
    v, last = _hermite(z, f, s), np.inf
    v = _iqi(z, s) if np.isnan(v) else v
    while hi[0] - lo[0] > tol:
        (a, _, sa), (b, _, sb) = lo, hi
        if not a < v < b:
            # A slope singular at EFFECTIVE_ZERO stalls regula falsi: bisect in log z.
            v = a - sa * (b - a) / (sb - sa) if b - a <= 0.5 * last else (
                math.sqrt(a * b) if b > 4.0 * a else 0.5 * (a + b))
        last = b - a
        x = min(max(v - 0.5 * tol, a), b - tol) + tol * np.array([0.0, 0.5, 1.0])
        fx, sx = yield x
        stencil = list(zip(x, fx, sx))
        if sx[0] >= 0.0 >= sx[-1]:
            return (*max(stencil, key=lambda pt: pt[1]), True)
        lo, hi, far = (stencil[-1], hi, hi) if sx[-1] > 0.0 else (lo, stencil[0], lo)
        v = _iqi((x[0], x[-1], far[0]), (sx[0], sx[-1], far[2]))
    return (*max((lo, hi), key=lambda pt: pt[1]), True)


def _refine(p: ModelParams, d: SenderDist, searches: list) -> tuple[list, int]:
    """Run (objective, search) pairs in lockstep; returns results, points used."""
    results, replies, n_evals = [None] * len(searches), [None] * len(searches), 0
    for _ in range(100):
        points = {}
        for i, (_, search) in enumerate(searches):
            if results[i] is None:
                try:
                    points[i] = search.send(replies[i])
                except StopIteration as stop:
                    results[i] = stop.value
        if not points:
            return results, n_evals
        moments = d.tail_moments(np.concatenate(list(points.values())), p.q)
        at = 0
        for i, x in points.items():
            replies[i] = searches[i][0](p, d, x, tuple(m[at:at + x.size] for m in moments))
            at += x.size
        n_evals += at
    raise ConvergenceError("refinement did not bracket a root of the slope")


def optimize(
    p: ModelParams, d: SenderDist, opts: OptimizerOptions | None = None
) -> DelegationOutcome:
    """Solve the planner's problem: argmax of the net surplus over thresholds."""
    opts = opts or OptimizerOptions()
    sweep = _Scan(p, d, opts.grid)
    gi, gj, g_val, tie_break, flat = sweep.best()
    grid = sweep.grid
    z_l, z_h, val = grid[gi], grid[gj], g_val
    slope = sweep.diag_slope[gi] if gi == gj else sweep.edge_slope[gj]
    method, refine_evals = "none", 0
    if opts.refine != "none":
        lines = [("golden-diagonal", sp.pi_p_many, sweep.diag, sweep.diag_slope, 0),
                 ("golden-edge", sp.pi_w_edge, sweep.edge, sweep.edge_slope, 1)]
        if gi != gj:
            lines.reverse()
        searches = []
        for _, objective, values, slopes, first in lines:
            # The line's best cell: the larger z on ties.
            tail = values[first:]
            c = first + np.flatnonzero(tail >= tail.max() - _TIE_TOL)[-1]
            k = np.array([max(c - 1, 0), c, min(c + 1, opts.grid - 1)])
            z = np.clip(grid[k], EFFECTIVE_ZERO, d.zbar - EFFECTIVE_ZERO)
            s_k = np.where(z == grid[k], slopes[k], np.nan)
            searches.append((objective, _root_search(z, values[k], s_k, opts.tol)))
        method = lines[0][0]
        results, refine_evals = _refine(p, d, searches)
        # The tie tolerance guards only points that are not roots, such as
        # the exact pooling corner against the line's end EFFECTIVE_ZERO away.
        for (name, *_), (z, v, s, root) in zip(lines, results):
            if v > val + (0.0 if root else _TIE_TOL):
                z_l = z if name == "golden-diagonal" else 0.0
                z_h, val, slope, method = z, v, s, name
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
        "foc_residual": float(slope),
        "active_bound": "zbar" if record.eq_class == th.SEPARATING else (
            "corner" if record.z_h <= EFFECTIVE_ZERO else None
        ),
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
