"""Bottom and top threshold systems and equilibrium classification.

The bottom system ties the entry type z_l to the entry pair (s_l, t_l); the
top system ties the pooling threshold z_h to the pooled action s_h and the
wage cap t_h. Both run in either direction: thresholds -> reactions
(solve_bottom / solve_top) and reactions -> thresholds (invert_floor /
invert_cap).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .distributions import _SUPPORT_TOL, EFFECTIVE_ZERO, SenderDist
from .errors import (
    DegenerateTailError,
    DomainError,
    InconsistencyError,
)
from .model import ModelParams
from .separating import SeparatingPath, newton_blocks

POOLING = "Pooling"
STRICTLY_WELL_BEHAVED = "StrictlyWellBehaved"
SEPARATING = "Separating"

# The top system is not solved for z_h closer than this to zbar (the
# conditional tail mean snaps to zbar there), and the pooling part is empty.
# resolve never gets that close: classify snaps within EFFECTIVE_ZERO.
_TOP_GUARD = _SUPPORT_TOL
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
    path = SeparatingPath(p, z_l, d.zbar)
    return path.s_l, path.t_l


def invert_floor(p: ModelParams, d: SenderDist, t_l: float) -> float:
    """Entry type z_l induced by a reaction floor t_l (inverse of solve_bottom).

    The floor is the power law t_l = beta (A k / beta)^(2/(2-a))
    z_l^((2q+2+a)/(2-a)), inverted directly; a z_l below EFFECTIVE_ZERO is
    the z_l = 0 normalization, as in ``resolve``.
    """
    if not t_l >= 0:
        raise DomainError(f"floor t_l={t_l} negative or NaN")
    scale = p.beta_cost * (p.A * p.k / p.beta_cost) ** (2.0 / (2.0 - p.a))
    power = (2.0 * p.q + 2.0 + p.a) / (2.0 - p.a)
    z_l = (t_l / scale) ** (1.0 / power)
    if z_l >= d.zbar:
        raise DomainError(
            f"floor t_l={t_l} excludes every type (max {scale * d.zbar**power:g})"
        )
    return 0.0 if z_l < EFFECTIVE_ZERO else z_l


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
    with E replaced by z_h) is positive just above sigma(z_h) and negative
    beyond the larger root; ``_pooled_action_rhs`` solves it. Where the tail
    mean does not exceed z_h, no root exists and DegenerateTailError is
    raised. This is ``solve_top``'s first output.
    """
    return solve_top(p, d, path, z_h)[0]


def _pooled_action_rhs(p: ModelParams, sig, z_h, ez) -> tuple[np.ndarray, np.ndarray]:
    """The pooled actions s and rhs, the net value of sigma(z_h), as arrays.

    Divided by s^a and written in u = s^(2-a) with e = a/(2-a), the residual
    c1 s^a - c2 s^2 - rhs becomes f(u) = c1 - c2 u - rhs u^(-e). Newton
    starts at u0 = c1/c2, where f(u0) = -rhs u0^(-e) <= 0, or, if smaller and
    rhs > 0, at the root of the linear bound on f from the tangent of the
    convex u^(-e) at sigma^(2-a) where that bound falls: right of the larger
    root. For rhs >= 0, f is concave, so Newton descends monotonically onto
    it. A negative rhs, which only rounding produces (z_h next to z_l), makes
    f convex and decreasing, and Newton climbs onto its only root. f is
    linear when a = 0. An element's Newton (``newton_blocks``) ends at the
    first block of steps whose last one was |du| <= 1e-7 u, which left u
    within about 1e-14 relative (quadratic convergence). Every power is
    ``np.power`` and the square a product, so a scalar, a one-element and a
    longer array round alike.
    Every z_h must lie strictly inside (z_l, zbar - 1e-9). The residual at
    sigma(z_h) is exactly A k sigma^a z_h^q (ez - z_h); where that is not
    positive, no root exists.
    """
    crossing = np.greater(ez, z_h)
    if not crossing.all():
        raise _no_crossing(np.asarray(z_h)[~crossing][0])
    c1 = p.A * p.k * np.power(z_h, p.q) * ez
    c2 = p.beta_cost / z_h
    rhs = (p.A * p.k * np.power(sig, p.a) * np.power(z_h, 1.0 + p.q)
           - p.beta_cost * (sig * sig) / z_h)
    e = p.a / (2.0 - p.a)
    e_rhs = e * rhs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_sig = np.power(sig, 2.0 - p.a)
        t_e = np.power(u_sig, -e)
        fall = c2 - e_rhs * t_e / u_sig
        tangent = (c1 - (1.0 + e) * rhs * t_e) / fall
    u = c1 / c2
    # [()] turns where's 0-d result for scalar inputs into a scalar.
    u = np.where(np.minimum(rhs, fall) > 0.0, np.minimum(u, tangent), u)[()]

    def step(u):
        u_e = np.power(u, -e)
        return (c1 - c2 * u - rhs * u_e) / (e_rhs * u_e / u - c2)

    u = newton_blocks(step, u, 1e-7, "pooled-action Newton iteration did not converge")
    return np.power(u, 1.0 / (2.0 - p.a)), rhs


def solve_top(
    p: ModelParams, d: SenderDist, path: SeparatingPath, z_h: float
) -> tuple[float, float]:
    """Pooled action and wage cap (s_h, t_h) for a given top threshold z_h."""
    rec = _top(p, d, path, z_h)
    return rec.s_h, rec.t_h


def _top(p: ModelParams, d: SenderDist, path: SeparatingPath, z_h: float) -> Thresholds:
    """The StrictlyWellBehaved record at z_h, the top system solved by scalars."""
    if path.zbar != d.zbar:
        raise DomainError(f"path on [0, {path.zbar}] but types on [0, {d.zbar}]")
    if not path.z_l < z_h < d.zbar - _TOP_GUARD:
        raise DomainError(f"z_h={z_h} outside (z_l={path.z_l}, zbar-1e-9)")
    sig, ez = path.sigma_tilde(z_h), d.trunc_mean(z_h)
    s_h = float(_pooled_action_rhs(p, sig, z_h, ez)[0])
    return top_record(p, path, z_h, sig, s_h, ez)


def top_record(p: ModelParams, path: SeparatingPath, z_h, sig, s_h, ez) -> Thresholds:
    """The StrictlyWellBehaved record at z_h on path, from sigma(z_h), the
    pooled action and the tail mean. The cap t_h comes from the sellers' jump
    indifference, and x_h = n(z_h) (``model.match_n``); the buyers'-side
    retrieval must agree (the two equations sum to the one defining s_h) and
    any disagreement beyond 1e-6 relative aborts.
    """
    tau_sig = path.tau_tilde(sig)
    t_sellers = p.beta_cost * s_h**2 / z_h + tau_sig - p.beta_cost * sig**2 / z_h
    x_h = float(model.match_n(p, z_h))
    t_buyers = p.A * x_h * s_h**p.a * ez - p.A * sig**p.a * x_h * z_h + tau_sig
    scale = max(1.0, abs(t_sellers), abs(t_buyers))
    if abs(t_sellers - t_buyers) > _RETRIEVAL_RTOL * scale:
        raise InconsistencyError(
            f"cap retrievals disagree at z_h={z_h}: sellers={t_sellers!r}, "
            f"buyers={t_buyers!r}"
        )
    return Thresholds(path.z_l, z_h, path.s_l, s_h, path.t_l, t_sellers, x_h,
                      STRICTLY_WELL_BEHAVED)


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
    s_star = float(_s_star(p, np.power(z_star, p.q + 1.0), d.trunc_mean(z_star)))
    return s_star, model.cost_c(p, s_star, z_star)


def _s_star(p: ModelParams, z_q1, ez):
    """``pooling_star``'s s* at entry z > 0 from z_q1 = z^(q+1) and the tail
    mean ez, scalar or array alike."""
    return np.power(z_q1 * p.A * p.k * ez / p.beta_cost, 1.0 / (2.0 - p.a))


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
    return _top(p, d, path, z_h)


def brentq(f, a, b, **kw):
    """``scipy.optimize.brentq``, imported on first call: only ``invert_cap``
    searches for a root, and importing scipy.optimize costs about 23 MB."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kw)


def invert_cap(
    p: ModelParams, d: SenderDist, path: SeparatingPath, t_h: float
) -> Thresholds:
    """Top threshold z_h induced by a reaction cap t_h, as a full record.

    Caps at or above the separating top wage leave the path unconstrained
    (Separating); caps down at the pooling limit collapse the separating part
    (Pooling with z_h = z_l); in between the monotone map z_h -> t_h is
    inverted by bracketed root finding.
    """
    if path.zbar != d.zbar:
        raise DomainError(f"path on [0, {path.zbar}] but types on [0, {d.zbar}]")
    if not t_h >= path.t_l - 1e-12 * max(1.0, path.t_l):
        raise DomainError(f"cap t_h={t_h} below the floor t_l={path.t_l} or NaN")
    z_l = path.z_l
    top = path.top_wage()
    if t_h >= top * (1.0 - 1e-12):
        return replace(resolve(p, d, z_l, d.zbar), t_h=t_h)
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
    return resolve(p, d, z_l, z_h)
