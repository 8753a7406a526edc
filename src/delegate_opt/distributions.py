"""Scaled-Beta sender-type distribution.

Types are drawn from ``zbar * Beta(alpha, beta_shape)``. The equilibrium
formulas only ever need the density, the CDF, and upper partial moments
``int_c^zbar z^p g(z) dz``, so that is the whole surface; there is no
sampling.

All of them are closed forms in the regularized incomplete beta function
(DLMF 8.17), evaluated with ``scipy.special``:

    int_c^zbar z^p g(z) dz = zbar^p B(alpha+p, beta)/B(alpha, beta)
                             * (1 - I_{c/zbar}(alpha+p, beta))

for alpha + p > 0. Otherwise (p = -1 with alpha <= 1, which the uniform shape
reaches) the substitution t = 1 - z/zbar leaves an incomplete beta whose second
parameter is not positive, written with the Gauss hypergeometric function:

    int_c^zbar z^p g(z) dz = zbar^p y^beta / beta
                             * 2F1(beta, 1-alpha-p; beta+1; y) / B(alpha, beta)

with y = 1 - c/zbar. No moment uses quadrature. The tail mean is its gap to
the top, exact however thin the tail (1 - z/zbar is Beta(beta, alpha)):

    zbar - E[z|z>=c] = zbar beta/(alpha+beta) I_y(beta+1, alpha) / I_y(beta, alpha)

or the gap's limit (zbar - c) beta/(beta+1) where the numerator is below the
smallest normal float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, betaincinv, betaln, hyp2f1

from .errors import ConfigError, DomainError

# Thresholds and lower limits below this are treated as exactly zero; 1/z
# integrands are cut at it instead.
EFFECTIVE_ZERO = 1e-6

_SUPPORT_TOL = 1e-9
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SenderDist:
    """Sender types distributed as zbar * Beta(alpha, beta_shape) on [0, zbar]."""

    alpha: float
    beta_shape: float
    zbar: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta_shape > 0 and self.zbar > 0):
            raise ConfigError(
                f"need alpha, beta_shape, zbar > 0, got "
                f"({self.alpha}, {self.beta_shape}, {self.zbar})"
            )

    @property
    def mean(self) -> float:
        return self.zbar * self.alpha / (self.alpha + self.beta_shape)

    def pdf(self, z: float | np.ndarray) -> float | np.ndarray:
        """Density of the scaled Beta; 0 on the boundary where the exponent allows."""
        z_arr = np.asarray(z, dtype=float)
        if np.any(z_arr < -_SUPPORT_TOL) or np.any(z_arr > self.zbar + _SUPPORT_TOL):
            raise DomainError(f"pdf argument outside [0, {self.zbar}]")
        u = np.clip(z_arr / self.zbar, 0.0, 1.0)
        ln_b = (
            math.lgamma(self.alpha) + math.lgamma(self.beta_shape)
            - math.lgamma(self.alpha + self.beta_shape)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_pdf = (
                (self.alpha - 1.0) * np.log(u)
                + (self.beta_shape - 1.0) * np.log1p(-u)
                - ln_b - math.log(self.zbar)
            )
        out = np.where(np.isnan(ln_pdf) | np.isinf(ln_pdf), 0.0, np.exp(ln_pdf))
        # alpha == 1 (beta_shape == 1) keeps a finite boundary density.
        if self.alpha == 1.0:
            out = np.where(u == 0.0, math.exp(-ln_b) / self.zbar, out)
        if self.beta_shape == 1.0:
            out = np.where(u == 1.0, math.exp(-ln_b) / self.zbar, out)
        if np.ndim(z) == 0:
            return float(out)
        return out

    def _unit(self, z: float) -> float:
        """z / zbar clamped to [0, 1]; SciPy returns NaN outside it instead of raising."""
        return min(max(z / self.zbar, 0.0), 1.0)

    def cdf(self, z: float) -> float:
        """P(Z <= z); arguments outside the support are clamped."""
        return float(betainc(self.alpha, self.beta_shape, self._unit(z)))

    def quantile(self, p: float) -> float:
        """Inverse CDF; diagnostics only."""
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"quantile probability {p} outside [0, 1]")
        return self.zbar * float(betaincinv(self.alpha, self.beta_shape, p))

    def _upper(self, p: float, x, y):
        """int_c^zbar z^p g(z) dz from x = c/zbar and y = (zbar - c)/zbar in [0, 1]."""
        a, b = self.alpha, self.beta_shape
        if a + p > 0.0:
            ratio = math.exp(betaln(a + p, b) - betaln(a, b))
            return self.zbar**p * ratio * betaincc(a + p, b, x)
        tail = y**b / b * hyp2f1(b, 1.0 - a - p, b + 1.0, y)
        return self.zbar**p * tail / math.exp(betaln(a, b))

    def partial_moment(self, c: float, p: float) -> float:
        """Upper partial moment int_c^zbar z^p g(z) dz."""
        if not -_SUPPORT_TOL <= c <= self.zbar + _SUPPORT_TOL:
            raise DomainError(f"lower limit {c} outside [0, {self.zbar}]")
        if p < -1.0:
            raise DomainError(f"exponent {p} below -1 is not integrable here")
        a, b = self.alpha, self.beta_shape
        if (p == -1.0 or a + p <= 0.0) and c < EFFECTIVE_ZERO:
            raise DomainError("1/z integrand needs a lower limit >= EFFECTIVE_ZERO")
        x = self._unit(c)
        if x >= 1.0:
            return 0.0
        # (zbar - c) / zbar is exact near zbar, unlike 1 - x.
        return float(self._upper(p, x, (self.zbar - c) / self.zbar))

    def _gap(self, y):
        """zbar - E[z|z>=c] from y = (zbar - c)/zbar, scalar or array.

        Unlike 1 - c/zbar, that y is exact near zbar.
        """
        a, b = self.alpha, self.beta_shape
        num = betainc(b + 1.0, a, y)
        # I_y(b+1, a) <= I_y(b, a) (DLMF 8.17.20), so the floor only acts
        # where the limit replaces the ratio, and keeps 0/0 out there.
        ratio = num / np.maximum(betainc(b, a, y), _TINY)
        limit = y * b / (b + 1.0)
        return self.zbar * np.where(num < _TINY, limit, b / (a + b) * ratio)

    def trunc_mean(self, c: float) -> float:
        """Conditional mean E[z | z >= c]."""
        if not -_SUPPORT_TOL <= c <= self.zbar + _SUPPORT_TOL:
            raise DomainError(f"threshold {c} outside [0, {self.zbar}]")
        if c >= self.zbar - _SUPPORT_TOL:
            return self.zbar
        return float(self.zbar - self._gap((self.zbar - max(c, 0.0)) / self.zbar))

    def tail_moments(
        self, c: np.ndarray, q: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E[z|z>=c], int_c^zbar z^q g and int_{max(c, EFFECTIVE_ZERO)}^zbar g/z.

        The array twin of ``trunc_mean`` and ``partial_moment`` (same closed
        forms) for lower limits c in [0, zbar] and q >= 0.
        """
        zbar = self.zbar
        c = np.asarray(c, dtype=float)
        c_inv = np.maximum(c, EFFECTIVE_ZERO)
        x, y = c / zbar, (zbar - c) / zbar
        ez = np.where(c >= zbar - _SUPPORT_TOL, zbar, zbar - self._gap(y))
        pm_q = self._upper(q, x, y)
        pm_inv = self._upper(-1.0, c_inv / zbar, (zbar - c_inv) / zbar)
        return ez, pm_q, pm_inv
