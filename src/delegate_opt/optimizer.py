"""Maximize aggregate net surplus over the threshold triangle.

The optimum of {0 <= z_l <= z_h <= zbar} lies on the z_l = 0 edge Pi_w(0, z_h)
or on the pooling diagonal Pi_p(z). Stage one scans both on a 61-point grid,
121 cells in all. The grid's ends are closed forms of slope 0: at z = 0 both
lines are Pi_p(0), and at zbar the edge is Pi_s and the diagonal 0. One array
pass (``surplus.line_pass``) gives both lines' values and closed-form slopes
at every other grid point and at each end's probe, EFFECTIVE_ZERO inside.
Those points and their distribution side (``surplus.dist_side``, every term
of the pass that depends on (d, q) and the points alone) come from a cache of
256 such keys, so the scan evaluates only what depends on p; a scan with a
value that is not finite is a DomainError. Stage two solves for a root of
each line's slope in the scan points around its best cell, from the root
of the quintic Hermite fit of those points' values and slopes: one loop
(``_search``) runs both lines, one pass per round, and every point carries
the pass that priced it. A root replaces the current optimum whenever its
value is higher, the grid best's own line first. The returned record is
built (unless Pooling or Separating) and priced from its point's pass, or
from a corner's closed forms. No stage calls adaptive quadrature, and
reruns reproduce a result bitwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

import numpy as np

from . import surplus as sp
from . import thresholds as th
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import ConvergenceError, DomainError
from .model import ModelParams
from .separating import SeparatingPath

_TIE_TOL = 1e-9
_FLAT_TOL = 1e-10
_CERT_TOL = 1e-8
_LINES = ("diag", "edge")
_GRID = 61  # scan points per line
_TOL = 1e-6  # width below which a root search ends


@dataclass(frozen=True)
class DelegationOutcome:
    thresholds: th.Thresholds
    interval: tuple[float, float]
    surplus: sp.SurplusBreakdown
    percentile_zh: float
    pi_s: float  # full delegation, Pi_w(0, zbar): the edge grid's last cell
    diagnostics: dict = field(compare=False)


def _best(edge: list, diag: list) -> tuple[int, int, float, bool, bool]:
    """Best cell (i, j) of the grid scan, (0, j) on the edge and (i, i) on the
    diagonal: value first, then larger z_h, then smaller z_l."""
    n, values = len(edge), edge + diag[1:]
    vmax = max(values)
    # Value k is cell (0, k) on the edge, and (k - n + 1, k - n + 1) past it.
    tied = [((0, k) if k < n else (k - n + 1,) * 2, v)
            for k, v in enumerate(values) if v >= vmax - _TIE_TOL]
    (i, j), value = min(tied, key=lambda cell: (-cell[0][1], cell[0][0]))
    flat = any(abs(a - i) > 1 or abs(b - j) > 1
               for (a, b), v in tied if v >= vmax - _FLAT_TOL)
    return i, j, value, len(tied) > 1, flat


def _iqi(z, s) -> float:
    """Root of the quadratic z(s) through three points (Brent's inverse
    quadratic interpolation); NaN unless each product of slope differences
    is a normal float, which the slopes' being distinct does not ensure."""
    den = [(s[i] - s[i - 1]) * (s[i] - s[i - 2]) for i in range(3)]
    if not all(sys.float_info.min <= abs(x) < math.inf for x in den):
        return math.nan
    return sum(z[i] * s[i - 1] * s[i - 2] / den[i] for i in range(3))


def _hermite(z, f, s) -> float:
    """Root of the slope of the quintic Hermite interpolant through three
    (z, f, s), in the cell the middle slope points into; NaN unless the z
    are equally spaced and all values finite."""
    (z0, z1, z2), (f0, f1, f2), (s0, s1, s2) = (map(float, w) for w in (z, f, s))
    h = 0.5 * (z2 - z0)
    if not abs(z1 - z0 - h) <= 1e-9 * h or not math.isfinite(f0 + f1 + f2 + s0 + s1 + s2):
        return math.nan
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
        # An exact root t = b ends the loop, where bisection would walk back to it.
        t_new = t_new if a < t_new <= b else 0.5 * (a + b)
        if abs(t_new - t) <= 1e-15:
            break
        t = t_new
    return z1 + h * t_new


def _search(starts: dict, evaluate, tol: float) -> tuple[dict, int]:
    """Bracketed roots of the lines' slopes, all lines in lockstep: one
    ``evaluate(points)`` per round prices every live line's points and
    returns each line's (values, slopes) arrays under its name.

    ``starts`` maps each line to its best grid cell and the cell's
    neighbours (a grid end replaced by its probe, where ``classify``
    snaps). A point is (z, value, slope, pass, index): the evaluation that
    priced it and its index there. The bracket is the cell the best cell's
    slope points into. A round evaluates v and v -/+ tol/2, and a sign
    change of the slope across them ends the line on their best point. The
    first v is ``_hermite``'s, or ``_iqi``'s through the three slopes where
    the nodes are not equally spaced; each later v is ``_iqi``'s through the
    outer two and the far end (Brent 1973). Outside the bracket, regula
    falsi, or bisection (in log z past a factor 4) if the last round did
    not halve it. A bracket no wider than tol, or (root False) one with no
    sign change, ends the line on its better end. Returns each line's
    (*point, root), in the order of ``starts``, and the points evaluated.
    """
    results, live, n_evals = dict.fromkeys(starts), {}, 0
    for line, cell in starts.items():
        z, f, s, *_ = zip(*cell)
        lo, hi = cell[1:] if s[1] > 0.0 else cell[:2]
        if lo[2] > 0.0 > hi[2]:
            v = _hermite(z, f, s)
            live[line] = [lo, hi, _iqi(z, s) if math.isnan(v) else v, math.inf]
        else:
            results[line] = (*max((lo, hi), key=itemgetter(1)), False)
    for _ in range(100):
        for line, (lo, hi, _, _) in list(live.items()):
            if hi[0] - lo[0] <= tol:
                results[line] = (*max((lo, hi), key=itemgetter(1)), True)
                del live[line]
        if not live:
            return results, n_evals
        points = []
        for state in live.values():
            (a, _, sa, *_), (b, _, sb, *_), v, last = state
            if not a < v < b:
                # A slope singular at EFFECTIVE_ZERO stalls regula falsi: bisect in log z.
                v = a - sa * (b - a) / (sb - sa) if b - a <= 0.5 * last else (
                    math.sqrt(a * b) if b > 4.0 * a else 0.5 * (a + b))
            state[3] = b - a
            points += [min(max(v - 0.5 * tol, a), b - tol) + tol * c for c in (0.0, 0.5, 1.0)]
        lp = evaluate(points)
        n_evals += len(points)
        for i, (line, state) in zip(range(0, len(points), 3), list(live.items())):
            lo, hi = state[:2]
            x = points[i:i + 3]
            fx, sx = (a[i:i + 3].tolist() for a in getattr(lp, line))
            stencil = list(zip(x, fx, sx, (lp,) * 3, range(i, i + 3)))
            if sx[0] >= 0.0 >= sx[-1]:
                results[line] = (*max(stencil, key=itemgetter(1)), True)
                del live[line]
            else:
                lo, hi, far = (stencil[-1], hi, hi) if sx[-1] > 0.0 else (lo, stencil[0], lo)
                state[:3] = lo, hi, _iqi((x[0], x[-1], far[0]), (sx[0], sx[-1], far[2]))
    raise ConvergenceError("refinement did not bracket a root of the slope")


@lru_cache(maxsize=256)
def _scan_side(d: SenderDist, q: float) -> tuple[np.ndarray, np.ndarray, sp.DistSide, tuple]:
    """The grid, the scan points (the grid with each end replaced by its
    probe EFFECTIVE_ZERO inside), their ``dist_side``, every array read-only,
    and the tail moments at the pooling corner z = 0 as floats: shared by
    equal (d, q)."""
    grid = np.linspace(0.0, d.zbar, _GRID)
    points = grid.copy()
    points[[0, -1]] = EFFECTIVE_ZERO, d.zbar - EFFECTIVE_ZERO
    side, corner = sp.dist_side(d, q, points), tuple(map(float, d.tail_moments(0.0, q)))
    for a in (grid, points, *side.moments, *side[1:]):
        a.flags.writeable = False
    return grid, points, side, corner


def optimize(p: ModelParams, d: SenderDist) -> DelegationOutcome:
    """Solve the planner's problem: argmax of the net surplus over thresholds."""
    path = SeparatingPath(p, 0.0, d.zbar)
    grid, points, side, corner = _scan_side(d, p.q)
    scan = sp.line_pass(path, d, points, side=side)
    # The corners: Pi_p(0) at z = 0 on both lines, and Pi_s at zbar on the edge.
    pooled = float(sp._pooled_net(p, sp._lead(p, 0.0) * corner[0], 0.0, *corner[1:3]))
    full = sp._anchored_scale(p, d, path)[0]
    # The search's bookkeeping runs on Python floats, not NumPy scalars.
    zs, pts = grid.tolist(), points.tolist()
    scanned = {name: tuple(f.tolist() for f in getattr(scan, name)) for name in _LINES}
    # The grid's lines: the scan's values and slopes, each end a corner.
    lines = {name: ([pooled, *values[1:-1], full if name == "edge" else 0.0],
                    [0.0, *slopes[1:-1], 0.0]) for name, (values, slopes) in scanned.items()}
    if not math.isfinite(pooled + full + sum(scanned["edge"][0] + scanned["diag"][0])):
        name, z, v = next((name, z, v) for name in _LINES for z, v in zip(
            zs + pts, lines[name][0] + scanned[name][0]) if not math.isfinite(v))
        raise DomainError(f"the scan of {d} is not finite: the {name} value at z = {z} is {v}")
    gi, gj, g_val, tie_break, flat = _best(lines["edge"][0], lines["diag"][0])
    line = "diag" if gi == gj else "edge"
    z_h, val, slope, lp, i = zs[gj], g_val, lines[line][1][gj], scan, gj
    starts = {}
    for name in sorted(_LINES, key=lambda name: name != line):
        values, (f, s) = lines[name][0], scanned[name]
        # The line's best cell, past the corner on the edge: the larger z on ties.
        first = int(name == "edge")
        top = max(values[first:])
        c = next(j for j in range(_GRID - 1, -1, -1) if values[j] >= top - _TIE_TOL)
        starts[name] = [(pts[j], f[j], s[j], scan, j)
                        for j in (max(c - 1, 0), c, min(c + 1, _GRID - 1))]
    results, refine_evals = _search(starts, lambda points: sp.line_pass(path, d, points), _TOL)
    # The tie tolerance guards only points that are not roots, such as
    # the exact pooling corner against the line's end EFFECTIVE_ZERO away.
    for name, (*point, root) in results.items():
        if point[1] > val + (0.0 if root else _TIE_TOL):
            line, (z_h, val, slope, lp, i) = name, point
    z_l = z_h if line == "diag" else 0.0
    if th.classify(z_l, z_h, d.zbar) == th.STRICTLY_WELL_BEHAVED:
        # An edge point (z_l = 0): the pass that evaluated it solved its top system.
        s_h, sig, ez = (float(a[i]) for a in (lp.s_h, lp.sig, lp.moments[0]))
        record = th.top_record(p, path, z_h, sig, s_h, ez)
    else:
        record = th.resolve(p, d, z_l, z_h)
    # The record's pricing pieces at record.z_h: a corner's closed forms, or
    # the pass that evaluated the point.
    sep = {th.POOLING: 0.0, th.SEPARATING: full}.get(record.eq_class, lp.sep[i])
    moments = corner if record.z_h in (0.0, d.zbar) else [m[i] for m in lp.moments]
    breakdown = sp.surplus_from(p, d, record, sep, moments)
    diagnostics = {
        "grid": _GRID,
        "grid_best": {"z_l": zs[gi], "z_h": zs[gj], "value": g_val},
        "refine_method": line,
        "refine_evals": refine_evals,
        "n_grid_evals": 2 * _GRID - 1,  # grid cells, the corners among them
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
        pi_s=full,
        diagnostics=diagnostics,
    )
