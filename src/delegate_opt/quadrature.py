"""Globally adaptive Gauss-Kronrod quadrature on a finite interval.

The integrand must be vectorized (ndarray in, ndarray out); every interval is
evaluated with a 15-point Kronrod rule whose embedded 7-point Gauss rule gives
the local error estimate. The worst interval is bisected until the summed
error estimate meets the tolerance. Deterministic: ties split the leftmost
interval.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_DEPTH = 60
# Generous global cap; smooth integrands here need a handful of intervals.
MAX_INTERVALS = 4096
_TINY = np.finfo(float).tiny

# Kronrod-15 abscissae on [-1, 1] and weights, with the embedded Gauss-7 rule
# on the odd-indexed nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])


def kronrod_nodes(a, b):
    """K15 nodes of the panels [a, b] and their half-widths.

    ``a`` and ``b`` are scalars or equal-length arrays of panel ends; the
    nodes run along the first axis, one column per panel.
    """
    half = 0.5 * (b - a)
    return np.multiply.outer(_XK, half) + 0.5 * (a + b), half


def kronrod_estimate(fx: np.ndarray, half):
    """K15 values and G7-based error estimates of panels.

    ``fx`` holds the integrand at the ``kronrod_nodes`` of each panel along
    its first axis; ``half`` holds the matching half-widths.
    """
    ik = half * np.dot(_WK, fx)
    ig = half * np.dot(_WG, fx[1::2])
    # Standard QUADPACK-style sharpened error estimate
    # resasc * min(1, (200 err / resasc)^1.5), written so that resasc = 0
    # (an integrand constant to the last bit) needs no division by zero.
    resasc = half * np.dot(_WK, abs(fx - ik / (2.0 * half)))
    err = abs(ik - ig)
    return ik, np.minimum(resasc, (200.0 * err) ** 1.5 / (resasc + _TINY) ** 0.5)


def _kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """Return (integral, error estimate) for one K15/G7 panel on [a, b]."""
    z, half = kronrod_nodes(a, b)
    ik, err = kronrod_estimate(np.asarray(f(z), dtype=float), half)
    return float(ik), float(err)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
    max_depth: int = MAX_DEPTH,
) -> float:
    """Integrate a vectorized integrand over [a, b].

    Raises ConvergenceError if the error target is not reached before an
    interval would be bisected past ``max_depth`` or the interval budget
    is exhausted.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, rel_tol, abs_tol, max_depth)

    ik, err = _kronrod_panel(f, a, b)
    intervals = [(a, b, ik, err, 0)]
    total = ik
    total_err = err
    while total_err > max(abs_tol, rel_tol * abs(total)):
        worst = max(range(len(intervals)), key=lambda i: (intervals[i][3], -intervals[i][0]))
        lo, hi, val, e, depth = intervals[worst]
        if depth >= max_depth:
            raise ConvergenceError(
                f"quadrature stalled on [{lo:g}, {hi:g}] at depth {depth} "
                f"(err={e:.3e}, target={max(abs_tol, rel_tol * abs(total)):.3e})"
            )
        if len(intervals) >= MAX_INTERVALS:
            raise ConvergenceError("quadrature interval budget exhausted")
        mid = 0.5 * (lo + hi)
        il, el = _kronrod_panel(f, lo, mid)
        ir, er = _kronrod_panel(f, mid, hi)
        intervals[worst] = (lo, mid, il, el, depth + 1)
        intervals.append((mid, hi, ir, er, depth + 1))
        total += il + ir - val
        total_err += el + er - e
    return total
