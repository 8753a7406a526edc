"""Aggregate net surplus of a well-behaved equilibrium.

The planner's objective splits into a separating part (assortative matching,
type-specific actions) on [z_l, z_h] and a pooling part (random matching,
one pooled action) on [z_h, zbar]:

    sep  = int_{z_l}^{z_h} (A k z^(q+1) sigma(z)^a - beta sigma(z)^2 / z) g(z) dz
    pool = A k s_h^a E[z|z>=z_h] int_{z_h}^{zbar} z^q g(z) dz
           - beta s_h^2 int_{z_h}^{zbar} g(z)/z dz

On a path anchored at z_l = 0, sigma(z) = (z^(2+q)/c1)^(1/(2-a)) is a power
law, so the separating density is K z^P g(z) with P = (2+2q+a)/(2-a) and
K = A k c1^(-a/(2-a)) - beta c1^(-2/(2-a)), and the separating part is a
difference of regularized incomplete betas:

    sep = K zbar^P B(alpha+P, beta)/B(alpha, beta)
          * (I_{z_hi/zbar} - I_{z_lo/zbar})(alpha+P, beta)

On a path anchored at z_l > 0, sigma has no closed form, so the separating
density above is integrated over the type by QUADPACK's QAGS, whose
extrapolation handles the (zbar - z)^(beta-1) endpoint singularity of Beta
shapes below 1; each node inverts mu by ``sigma_tilde``.
The pooling part takes its tail integrals from the closed forms in
``distributions``. Transfers cancel, so nothing here reads wages.

``thresholds.classify`` alone decides which equilibrium a pair (z_l, z_h)
induces, and ``surplus_from`` prices its record, from the pieces that
``pi_w`` computes or a ``line_pass`` already holds. So ``pi_w`` snaps as
``classify`` does: a pair within EFFECTIVE_ZERO of the diagonal is priced as
pooling, and a z_h within EFFECTIVE_ZERO of zbar as separating. The breakdown
carries the record's z_l and z_h. A ``line_pass`` prices both lines at each
of its points, all in [EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO], where the edge
solves its top system. Every term that depends on (d, q, z) alone comes from
their ``dist_side``, so a pass on a cached side evaluates only what depends
on p. The corners are closed forms, which ``optimize`` prices itself: the
pooling corner Pi_p(0), and full delegation Pi_s, the scale of
``_anchored_scale`` (I_1 = 1).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc

from . import thresholds
from .distributions import _TINY, EFFECTIVE_ZERO, SenderDist, _betaln
from .errors import DomainError
from .model import ModelParams
from .quadrature import integrate
from .separating import _DOMAIN_SLACK, SeparatingPath
from .thresholds import _TOP_GUARD


@dataclass(frozen=True)
class SurplusBreakdown:
    separating_part: float
    pooling_part: float
    total: float
    z_l: float
    z_h: float


def sep_part(
    p: ModelParams,
    d: SenderDist,
    path: SeparatingPath,
    z_lo: float | np.ndarray,
    z_hi: float | np.ndarray,
) -> float | np.ndarray:
    """Net surplus density integrated over a slice of the separating region.

    Closed form on a path anchored at z_l = 0, where z_lo and z_hi may be
    arrays; adaptive quadrature over the type on any other path, whose
    limits must lie in sigma's domain [z_l, zbar].
    """
    if path.z_l > 0.0:
        lo, hi = path.z_l - _DOMAIN_SLACK, path.zbar * (1.0 + _DOMAIN_SLACK)
        if not (lo <= z_lo <= hi and lo <= z_hi <= hi):
            raise DomainError(f"limits ({z_lo}, {z_hi}) outside [z_l, zbar] of {path}")

        def density(z: float) -> float:
            sig = path.sigma_tilde(z)
            net = p.A * p.k * z ** (p.q + 1.0) * sig**p.a - p.beta_cost * sig**2 / z
            return net * d.pdf(z)

        return integrate(density, z_lo, z_hi)
    scale, a, b = _anchored_scale(p, d, path)
    # SciPy returns NaN outside [0, 1], so the limits are clamped first.
    x_lo, x_hi = (np.minimum(np.maximum(z / d.zbar, 0.0), 1.0) for z in (z_lo, z_hi))
    return scale * (betainc(a, b, x_hi) - betainc(a, b, x_lo))


def _anchored_scale(p: ModelParams, d: SenderDist, path: SeparatingPath):
    """K zbar^P B(alpha+P, beta)/B(alpha, beta), the separating part's scale
    on a path anchored at z_l = 0, and its incomplete beta's (alpha+P, beta)."""
    e = 1.0 / (2.0 - p.a)
    power = (2.0 + 2.0 * p.q + p.a) * e
    k_net = p.A * p.k * path.c1 ** (-p.a * e) - p.beta_cost * path.c1 ** (-2.0 * e)
    a, b = d.alpha + power, d.beta_shape
    return k_net * d.zbar**power * math.exp(_betaln(a, b) - _betaln(d.alpha, b)), a, b


def _lead(p: ModelParams, s):
    """A k s^a, by ``np.power`` so that a scalar and an array round alike."""
    return p.A * p.k * np.power(s, p.a)


def _pooled_net(p: ModelParams, lead_e, s_h, pm_q, pm_inv):
    """lead_e int z^q g - beta s_h^2 int g/z over the pooled tail, where
    lead_e = ``_lead(p, s_h)`` E[z|z>=z_h]; the square is a product, so that
    a scalar and an array round alike."""
    return lead_e * pm_q - p.beta_cost * (s_h * s_h) * pm_inv


def pool_part(
    p: ModelParams, d: SenderDist, z_h: float | np.ndarray, s_h: float | np.ndarray
) -> float | np.ndarray:
    """Net surplus of the pooled tail, given the pooled action s_h.

    The 1/z integral is cut at EFFECTIVE_ZERO, so with s_h = 0 the cost term
    is exactly zero, which covers the degenerate pooling-at-zero case where
    the raw integral would diverge. Zero within the top guard of zbar.
    """
    ez, pm_q, pm_inv, _ = d.tail_moments(z_h, p.q)
    out = np.where(
        np.asarray(z_h) >= d.zbar - _TOP_GUARD,
        0.0,
        _pooled_net(p, _lead(p, s_h) * ez, s_h, pm_q, pm_inv),
    )
    return float(out) if out.ndim == 0 else out


def surplus_from(
    p: ModelParams, d: SenderDist, rec: thresholds.Thresholds, sep, moments
) -> SurplusBreakdown:
    """The breakdown of rec, in Python floats, from its separating part (0
    when Pooling) and ``tail_moments`` at rec.z_h; the pooled part is
    ``pool_part``'s."""
    sep, pool = float(sep), 0.0
    if rec.z_h < d.zbar - _TOP_GUARD:
        ez, pm_q, pm_inv = moments[:3]
        pool = float(_pooled_net(p, _lead(p, rec.s_h) * ez, rec.s_h, pm_q, pm_inv))
    return SurplusBreakdown(sep, pool, sep + pool, rec.z_l, rec.z_h)


def pi_w(p: ModelParams, d: SenderDist, z_l: float, z_h: float) -> SurplusBreakdown:
    """Aggregate net surplus of the equilibrium that (z_l, z_h) induces:
    ``surplus_from`` of ``resolve``'s record."""
    if not 0.0 <= z_l <= z_h <= d.zbar * (1.0 + 1e-12):
        raise DomainError(f"need 0 <= z_l <= z_h <= zbar, got ({z_l}, {z_h})")
    rec = thresholds.resolve(p, d, z_l, z_h)
    sep = 0.0 if rec.eq_class == thresholds.POOLING else sep_part(
        p, d, SeparatingPath(p, rec.z_l, d.zbar), rec.z_l, rec.z_h)
    return surplus_from(p, d, rec, sep, d.tail_moments(rec.z_h, p.q))


def pi_p(p: ModelParams, d: SenderDist, z_star: float) -> float:
    """Net surplus of the pure pooling equilibrium with entry threshold z*."""
    s_star, _ = thresholds.pooling_star(p, d, z_star)
    return pool_part(p, d, z_star, s_star)


# line_pass at points z: edge is (Pi_w(0, z), slope) and diag (Pi_p(z), slope);
# sep, sig and s_h are the edge's separating part, sigma(z) and pooled action,
# and moments is d.tail_moments(z, p.q).
LinePass = namedtuple("LinePass", "z moments sep sig s_h edge diag")
# dist_side at points z: moments is d.tail_moments(z, q) = (E, M_q, M_inv, P);
# x_sep is the separating part's upper limit z/zbar, z_q1 is z^(q+1), dlog
# 2 E'/E with the tail mean's slope E' = g (E - z)/P, d_w = -(q+1) z^q M_inv,
# then the edge's E', z^q, z^(2+q) and q + 1 + z E'/E.
DistSide = namedtuple("DistSide", "moments x_sep z_q1 dlog d_w de z_q z_2q rate_z")


def dist_side(d: SenderDist, q: float, z: np.ndarray) -> DistSide:
    """Every term of a line pass at the points z that depends on (d, q, z) alone."""
    moments = d.tail_moments(z, q)
    ez, m_q, m_inv, mass = moments
    de = d.pdf(z) * (ez - z) / np.maximum(mass, _TINY)
    z_q = z**q
    return DistSide(moments, z / d.zbar, np.power(z, q + 1.0), 2.0 * de / ez,
                    -(q + 1.0) * z_q * m_inv, de, z_q, np.power(z, 2.0 + q),
                    q + 1.0 + z * de / ez)


def line_pass(path: SeparatingPath, d: SenderDist, z: np.ndarray,
              side: DistSide | None = None) -> LinePass:
    """The z_l = 0 edge, which is ``path`` (the path anchored at z_l = 0),
    and the pooling diagonal at every z in [EFFECTIVE_ZERO, zbar -
    EFFECTIVE_ZERO], values and slopes, in one batch; a point outside that
    interval is a DomainError. The corners z = 0 and zbar are closed forms
    that ``optimize`` prices itself.

    Both lines share one distribution side ``side``, ``dist_side(d, q, z)``
    unless given, and evaluate here only what depends on the parameters.

    Diagonal: the value is ``pi_p(p, d, z)``, with ``pooling_star``'s closed
    form s*. As beta s*^2 = A k s*^a z^(q+1) E,
    Pi_p = A k s*^a E W with W = M_q - z^(q+1) M_inv, whose slope is
    Pi_p (a (q+1)/z + 2 E'/E)/(2-a) + A k s*^a E W', W' = -(q+1) z^q M_inv.

    Edge: the value is ``pi_w(p, d, 0, z).total``. In the slope
    K z^P g + dPool/dz, K z^P g cancels the pooled density the tail loses by
    the top equation F = X - beta s^2/z - rhs(z) = 0, X = A k s^a z^q E. The
    rest moves s_h by -F_z/F_s, with s F_s = (a-2) X + 2 rhs and
    z F_z = X (q+1 + z E'/E) - (P+1) rhs, and E by E'.
    """
    z = np.asarray(z, dtype=float)
    if not (EFFECTIVE_ZERO <= z.min() and z.max() <= d.zbar - EFFECTIVE_ZERO):
        raise DomainError(f"line pass points [{z.min()}, {z.max()}] outside "
                          f"[EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO] of {d}")
    p = path.params
    side = dist_side(d, p.q, z) if side is None else side
    ez, m_q, m_inv, _ = side.moments
    s_star = thresholds._s_star(p, side.z_q1, ez)
    star_lead = _lead(p, s_star) * ez  # A k s*^a E
    d_val = _pooled_net(p, star_lead, s_star, m_q, m_inv)
    rate = p.a * (p.q + 1.0) / z + side.dlog
    d_slope = d_val * rate / (2.0 - p.a) + star_lead * side.d_w
    scale, a, b = _anchored_scale(p, d, path)
    sep = scale * betainc(a, b, side.x_sep)
    sig = path.power_sigma(side.z_2q)
    s, rhs = thresholds._pooled_action_rhs(p, sig, z, ez)
    power = (2.0 + 2.0 * p.q + p.a) / (2.0 - p.a)
    lead = _lead(p, s)  # A k s_h^a
    pool = _pooled_net(p, lead * ez, s, m_q, m_inv)
    x = lead * side.z_q * ez
    z_f_z = x * side.rate_z - (power + 1.0) * rhs
    # s dPool/ds, with beta s^2 = (X - rhs) z.
    s_d_pool = p.a * lead * ez * m_q - 2.0 * (x - rhs) * z * m_inv
    slope = lead * side.de * m_q - z_f_z * s_d_pool / (z * ((p.a - 2.0) * x + 2.0 * rhs))
    return LinePass(z, side.moments, sep, sig, s, (sep + pool, slope), (d_val, d_slope))


def pi_s(p: ModelParams, d: SenderDist) -> float:
    """Net surplus of the separating equilibrium (full delegation)."""
    return pi_w(p, d, 0.0, d.zbar).total


def well_behaved_gain(
    p: ModelParams,
    d: SenderDist,
    q_small: float,
    a_small: float,
    z_h_small: float,
) -> float:
    """Pi_w(0, z_h) - Pi_s at perturbed (q, a); tends to A k mu_z / 2 as all
    three arguments shrink, which is why small caps beat full delegation."""
    p_small = replace(p, q=q_small, a=a_small)
    return pi_w(p_small, d, 0.0, z_h_small).total - pi_s(p_small, d)
