"""Adaptive quadrature on a finite interval: QUADPACK's QAGS via SciPy.

``integrate`` calls ``scipy.integrate.quad``, whose Gauss-Kronrod 21-point
panels and epsilon-algorithm extrapolation also handle the algebraic endpoint
singularities of Beta densities with a shape below 1. The integrand is called
with one float at a time. Where QUADPACK reports that the target was missed
(subdivision limit, roundoff, divergence), ``ConvergenceError`` is raised
instead of returning its estimate.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError

REL_TOL = 1e-9
ABS_TOL = 1e-12


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> float:
    """Integrate ``f`` over [a, b]; ``b < a`` gives the negated integral."""
    # Imported on first use: importing scipy.integrate costs tens of
    # milliseconds and megabytes, and neither the optimizer nor the threshold
    # maps ever integrate.
    from scipy.integrate import quad

    value, err, _, *failure = quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, full_output=1
    )
    if failure:
        raise ConvergenceError(
            f"quadrature on [{a:g}, {b:g}] missed its target (err={err:.3e}): "
            f"{failure[0].splitlines()[0]}"
        )
    return value
