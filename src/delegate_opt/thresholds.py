"""Bottom and top threshold systems and equilibrium classification.

The bottom system ties the entry type z_l to the entry pair (s_l, t_l); the
top system ties the pooling threshold z_h to the pooled action s_h and the
wage cap t_h. Both run in either direction: thresholds -> reactions
(solve_bottom / solve_top) and reactions -> thresholds (invert_floor /
invert_cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import model
from .distributions import EFFECTIVE_ZERO, SenderDist
from .errors import (
    ConvergenceError,
    DegenerateTailError,
    DomainError,
    InconsistencyError,
)
from .model import ModelParams
from .separating import SeparatingPath, s_lower

POOLING = "Pooling"
STRICTLY_WELL_BEHAVED = "StrictlyWellBehaved"
SEPARATING = "Separating"

# z_h closer than this to zbar is classified Separating: the top system is
# not solved (the conditional tail mean snaps to zbar there) and the pooling
# part is empty.
_TOP_GUARD = 1e-9
_RETRIEVAL_RTOL = 1e-6


@dataclass(frozen=True)
class Thresholds:
    """Threshold pair with the induced actions, reactions, and class."""

    z_l: float
    z_h: float
    s_l: float
    s_h: float
    t_l: float
    t_h: float
    x_h: float
    eq_class: str

    def __post_init__(self) -> None:
        if not self.z_l <= self.z_h:
            raise DomainError(f"z_l={self.z_l} above z_h={self.z_h}")
        if self.t_h < self.t_l - 1e-12 * max(1.0, abs(self.t_l)):
            raise DomainError(f"t_h={self.t_h} below t_l={self.t_l}")


def classify(z_l: float, z_h: float, zbar: float) -> str:
    """Equilibrium class with EFFECTIVE_ZERO snapping at both boundaries."""
    if z_h - z_l < EFFECTIVE_ZERO:
        return POOLING
    if zbar - z_h < EFFECTIVE_ZERO:
        return SEPARATING
    return STRICTLY_WELL_BEHAVED


def solve_bottom(p: ModelParams, d: SenderDist, z_l: float) -> tuple[float, float]:
    """Entry pair (s_l, t_l) for a given entry type z_l.

    Both bottom inequalities bind when z_l > 0, so t_l = c(s_l, z_l)
    (equivalently v(n(z_l), s_l, z_l)); the z_l = 0 normalization is (0, 0).
    """
    if not 0.0 <= z_l < d.zbar:
        raise DomainError(f"z_l={z_l} outside [0, zbar={d.zbar})")
    s_l = s_lower(p, z_l)
    t_l = 0.0 if z_l == 0.0 else model.cost_c(p, s_l, z_l)
    return s_l, t_l


def invert_floor(p: ModelParams, d: SenderDist, t_l: float) -> float:
    """Entry type z_l induced by a reaction floor t_l (inverse of solve_bottom).

    The floor is the power law t_l = beta (A k / beta)^(2/(2-a))
    z_l^((2q+2+a)/(2-a)), inverted directly; a z_l below EFFECTIVE_ZERO is
    the z_l = 0 normalization, as in ``resolve``.
    """
    if t_l < 0:
        raise DomainError(f"floor t_l={t_l} negative")
    scale = p.beta_cost * (p.A * p.k / p.beta_cost) ** (2.0 / (2.0 - p.a))
    power = (2.0 * p.q + 2.0 + p.a) / (2.0 - p.a)
    z_l = (t_l / scale) ** (1.0 / power)
    if z_l >= d.zbar:
        raise DomainError(
            f"floor t_l={t_l} excludes every type (max {scale * d.zbar**power:g})"
        )
    return 0.0 if z_l < EFFECTIVE_ZERO else z_l


def _top_rhs(p: ModelParams, sig, z_h):
    """The top indifference equation's right side: net value of sigma(z_h)."""
    return p.A * p.k * sig**p.a * z_h ** (1.0 + p.q) - p.beta_cost * sig**2 / z_h


def _no_crossing(z_h) -> DegenerateTailError:
    return DegenerateTailError(
        f"top indifference residual not positive just above sigma(z_h) at "
        f"z_h={z_h}: no pooled action exists (the tail mean must exceed z_h)"
    )


def pooled_action(
    p: ModelParams, d: SenderDist, path: SeparatingPath, z_h: float
) -> float:
    """Pooled action s_h: the larger root of the top indifference equation.

    The residual A k s^a z_h^q E[z|z>=z_h] - beta s^2/z_h - (same at sigma(z_h)
    with E replaced by z_h) is positive at sigma(z_h) and eventually negative,
    so doubling the upper end always brackets the larger root. Where it is
    not positive just above sigma(z_h), as when the tail mean equals z_h, no
    bracket exists and DegenerateTailError is raised.
    """
    if not path.z_l < z_h < d.zbar - _TOP_GUARD:
        raise DomainError(f"z_h={z_h} outside (z_l={path.z_l}, zbar-1e-9)")
    sig = path.sigma_tilde(z_h)
    ez = d.trunc_mean(z_h)
    rhs = _top_rhs(p, sig, z_h)

    def resid(s: float) -> float:
        return (
            p.A * p.k * s**p.a * z_h**p.q * ez - p.beta_cost * s**2 / z_h - rhs
        )

    lo = sig * (1.0 + 1e-10)
    hi = max(2.0 * sig, 1e-12)
    for _ in range(200):
        if resid(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"no upper bracket for the pooled action at z_h={z_h}")
    try:
        return brentq(resid, lo, hi, xtol=1e-14, rtol=1e-12)
    except ValueError as exc:  # resid(lo) has the sign of resid(hi)
        raise _no_crossing(z_h) from exc


def pooled_action_many(
    p: ModelParams, sig: np.ndarray, z_h: np.ndarray, ez: np.ndarray
) -> np.ndarray:
    """``pooled_action`` at many z_h at once, given sigma(z_h) and E[z|z>=z_h].

    The residual is concave in s, so Newton started right of the larger root
    decreases monotonically onto it; (c1/c2)^(1/(2-a)) is such a start
    wherever rhs >= 0, and doubling covers the rest. The larger root lies
    right of the residual's maximum, so no step meets a zero slope. The stop
    test is ``pooled_action``'s root tolerance. Every z_h must lie strictly
    inside (z_l, zbar - 1e-9). The residual at sigma(z_h) is exactly
    A k sigma^a z_h^q (ez - z_h); where that is not positive, no root exists.
    """
    # pooled_action's residual, written as c1 s^a - c2 s^2 - rhs.
    c1 = p.A * p.k * z_h**p.q * ez
    c2 = p.beta_cost / z_h
    rhs = _top_rhs(p, sig, z_h)

    def resid(s: np.ndarray) -> np.ndarray:
        return c1 * s**p.a - c2 * s**2 - rhs

    bad = ~(ez > z_h)
    if np.any(bad):
        raise _no_crossing(z_h[bad][0])
    hi = np.maximum((c1 / c2) ** (1.0 / (2.0 - p.a)), np.maximum(2.0 * sig, 1e-12))
    for _ in range(200):
        up = resid(hi) >= 0.0
        if not np.any(up):
            break
        hi = np.where(up, 2.0 * hi, hi)
    else:
        raise ConvergenceError("no upper bracket for the pooled actions")
    s = hi
    for _ in range(100):
        s_a = s**p.a
        step = (c1 * s_a - c2 * s * s - rhs) / (p.a * c1 * s_a / s - 2.0 * c2 * s)
        s = s - step
        if (np.abs(step) <= 1e-14 + 1e-12 * s).all():
            return s
    raise ConvergenceError("pooled-action Newton iteration did not converge")


def solve_top(
    p: ModelParams, d: SenderDist, path: SeparatingPath, z_h: float
) -> tuple[float, float]:
    """Pooled action and wage cap (s_h, t_h) for a given top threshold z_h.

    t_h comes from the sellers' jump indifference; the buyers'-side retrieval
    must agree (the two equations sum to the one defining s_h) and any
    disagreement beyond 1e-6 relative aborts.
    """
    s_h = pooled_action(p, d, path, z_h)
    sig = path.sigma_tilde(z_h)
    tau_sig = path.tau_tilde(sig)
    t_sellers = model.cost_c(p, s_h, z_h) + tau_sig - model.cost_c(p, sig, z_h)
    x_h = model.match_n(p, z_h)
    t_buyers = (
        p.A * x_h * s_h**p.a * d.trunc_mean(z_h)
        - model.surplus_v(p, x_h, sig, z_h)
        + tau_sig
    )
    scale = max(1.0, abs(t_sellers), abs(t_buyers))
    if abs(t_sellers - t_buyers) > _RETRIEVAL_RTOL * scale:
        raise InconsistencyError(
            f"cap retrievals disagree at z_h={z_h}: sellers={t_sellers!r}, "
            f"buyers={t_buyers!r}"
        )
    return s_h, t_sellers


def pooling_star(
    p: ModelParams, d: SenderDist, z_star: float
) -> tuple[float, float]:
    """Pooled pair (s*, t*) of the pure pooling equilibrium with entry z*.

    Both pooling conditions bind for z* > 0:
    s* = (z*^(q+1) A k E[z|z>=z*] / beta)^(1/(2-a)) and t* = c(s*, z*).
    Degenerate entry z* = 0 gives (0, 0).
    """
    if not 0.0 <= z_star < d.zbar:
        raise DomainError(f"z_star={z_star} outside [0, zbar={d.zbar})")
    if z_star < EFFECTIVE_ZERO:
        return 0.0, 0.0
    s_star = (
        z_star ** (p.q + 1.0) * p.A * p.k * d.trunc_mean(z_star) / p.beta_cost
    ) ** (1.0 / (2.0 - p.a))
    return s_star, model.cost_c(p, s_star, z_star)


def resolve(p: ModelParams, d: SenderDist, z_l: float, z_h: float) -> Thresholds:
    """Assemble the full Thresholds record for a threshold pair."""
    eq_class = classify(z_l, z_h, d.zbar)
    if eq_class == POOLING:
        z_star = 0.0 if z_l < EFFECTIVE_ZERO else z_l
        s_star, t_star = pooling_star(p, d, z_star)
        return Thresholds(
            z_l=z_star, z_h=z_star, s_l=s_star, s_h=s_star,
            t_l=t_star, t_h=t_star, x_h=model.match_n(p, z_star),
            eq_class=POOLING,
        )
    path = SeparatingPath(p, z_l, d.zbar)
    if eq_class == SEPARATING:
        s_top = path.sigma_tilde(d.zbar)
        return Thresholds(
            z_l=z_l, z_h=d.zbar, s_l=path.s_l, s_h=s_top,
            t_l=path.t_l, t_h=path.tau_tilde(s_top),
            x_h=model.match_n(p, d.zbar), eq_class=SEPARATING,
        )
    s_h, t_h = solve_top(p, d, path, z_h)
    return Thresholds(
        z_l=z_l, z_h=z_h, s_l=path.s_l, s_h=s_h, t_l=path.t_l, t_h=t_h,
        x_h=model.match_n(p, z_h), eq_class=STRICTLY_WELL_BEHAVED,
    )


def invert_cap(
    p: ModelParams, d: SenderDist, path: SeparatingPath, t_h: float
) -> Thresholds:
    """Top threshold z_h induced by a reaction cap t_h, as a full record.

    Caps at or above the separating top wage leave the path unconstrained
    (Separating); caps down at the pooling limit collapse the separating part
    (Pooling with z_h = z_l); in between the monotone map z_h -> t_h is
    inverted by bracketed root finding.
    """
    if t_h < path.t_l - 1e-12 * max(1.0, path.t_l):
        raise DomainError(f"cap t_h={t_h} below the floor t_l={path.t_l}")
    z_l = path.z_l
    top = path.top_wage()
    if t_h >= top * (1.0 - 1e-12):
        s_top = path.sigma_tilde(d.zbar)
        return Thresholds(
            z_l=z_l, z_h=d.zbar, s_l=path.s_l, s_h=s_top, t_l=path.t_l,
            t_h=t_h, x_h=model.match_n(p, d.zbar), eq_class=SEPARATING,
        )
    # The cap at which the separating part collapses entirely; equals t_l
    # when z_l = 0.
    _, t_pool = pooling_star(p, d, z_l)
    if t_h <= t_pool + 1e-12 * max(1.0, t_pool):
        return resolve(p, d, z_l, z_l)

    # The probes sit one EFFECTIVE_ZERO inside (z_l, zbar): a root beyond
    # either would be classified Pooling or Separating regardless.
    z_cap = d.zbar - EFFECTIVE_ZERO
    lo = z_l + EFFECTIVE_ZERO

    def gap(z: float) -> float:
        return solve_top(p, d, path, z)[1] - t_h

    g_lo, g_hi = gap(lo), gap(z_cap)
    if g_lo > 0.0:
        # Cap sits below the solvable band right above z_l; snap to pooling.
        return resolve(p, d, z_l, z_l)
    if g_hi < 0.0:
        # Cap sits within EFFECTIVE_ZERO of zbar; snap to separating.
        return resolve(p, d, z_l, d.zbar)
    z_h = brentq(gap, lo, z_cap, xtol=1e-12, rtol=8.9e-16)
    s_h, t_h_check = solve_top(p, d, path, z_h)
    eq_class = classify(z_l, z_h, d.zbar)
    if eq_class == STRICTLY_WELL_BEHAVED:
        return Thresholds(
            z_l=z_l, z_h=z_h, s_l=path.s_l, s_h=s_h, t_l=path.t_l,
            t_h=t_h_check, x_h=model.match_n(p, z_h),
            eq_class=eq_class,
        )
    return resolve(p, d, z_l, z_h)
