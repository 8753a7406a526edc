from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln

from delegate_opt.distributions import EFFECTIVE_ZERO, SenderDist
from delegate_opt.errors import ConfigError, DomainError

from conftest import AGREEMENT_SHAPES, BASELINE_SHAPES


def uniform_partial_moment(c: float, p: float, zbar: float = 3.0) -> float:
    """Closed-form int_c^zbar z^p / zbar dz, the brute-force oracle."""
    if p == -1.0:
        return (math.log(zbar) - math.log(c)) / zbar
    return (zbar ** (p + 1.0) - c ** (p + 1.0)) / ((p + 1.0) * zbar)


class TestPdf:
    def test_uniform(self, uniform3):
        assert uniform3.pdf(1.2) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_symmetric_bell(self):
        # B(5,5) = 1/630, density at the midpoint u = 1/2.
        assert SenderDist(5, 5, 3).pdf(1.5) == pytest.approx(
            630.0 * 0.5**8 / 3.0, rel=1e-12
        )

    def test_vanishes_at_boundary(self):
        assert SenderDist(3, 5, 3).pdf(0.0) == 0.0

    def test_outside_support_raises(self, uniform3):
        with pytest.raises(DomainError):
            uniform3.pdf(3.5)
        with pytest.raises(DomainError):
            uniform3.pdf(-0.1)

    @pytest.mark.parametrize("shape", BASELINE_SHAPES)
    def test_integrates_to_one(self, shape):
        d = SenderDist(*shape, 3)
        assert d.partial_moment(0.0, 0.0) == pytest.approx(1.0, rel=1e-9)


class TestCdf:
    def test_uniform(self, uniform3):
        assert uniform3.cdf(1.755) == pytest.approx(0.585, abs=1e-12)

    def test_symmetry(self):
        assert SenderDist(5, 5, 3).cdf(1.5) == pytest.approx(0.5, abs=1e-12)

    def test_support_endpoint(self):
        assert SenderDist(3, 5, 3).cdf(3.0) == 1.0

    def test_clamps(self, uniform3):
        assert uniform3.cdf(-1.0) == 0.0
        assert uniform3.cdf(4.0) == 1.0

    @pytest.mark.parametrize("a,b", [(1, 1), (5, 5), (3, 5), (5, 3), (0.4, 2.7), (8.1, 0.6)])
    def test_against_scipy(self, a, b):
        # The density integrated by scipy's algebraic-weight quadrature
        # (QAWS), which takes the endpoint singularity into the weight: from
        # 0 below the median of x, as the complement from 1 above it.
        d = SenderDist(a, b, 1.0)
        scale = math.exp(-betaln(a, b))
        for x in np.linspace(1e-8, 1 - 1e-8, 61):
            if x <= 0.5:
                want, _ = quad(
                    lambda t: scale * (1.0 - t) ** (b - 1.0), 0.0, x,
                    weight="alg", wvar=(a - 1.0, 0.0), epsabs=1e-14, epsrel=1e-13,
                )
            else:
                tail, _ = quad(
                    lambda t: scale * t ** (a - 1.0), x, 1.0,
                    weight="alg", wvar=(0.0, b - 1.0), epsabs=1e-14, epsrel=1e-13,
                )
                want = 1.0 - tail
            assert d.cdf(x) == pytest.approx(want, abs=1e-12)

    def test_analytic_values(self):
        # I_x(1, b) = 1 - (1-x)^b, I_x(a, 1) = x^a and I_1/2(a, a) = 1/2.
        for x in np.linspace(0.0, 1.0, 41):
            for e in (0.4, 1.0, 2.7, 8.1):
                assert SenderDist(1, e, 1.0).cdf(x) == pytest.approx(
                    1.0 - (1.0 - x) ** e, rel=1e-13, abs=1e-15
                )
                assert SenderDist(e, 1, 1.0).cdf(x) == pytest.approx(
                    x**e, rel=1e-13, abs=1e-15
                )
        for a in (0.3, 0.6, 1.0, 2.5, 7.9):
            assert SenderDist(a, a, 3.0).cdf(1.5) == pytest.approx(0.5, abs=1e-14)

    def test_nondecreasing_and_quantile_roundtrip(self):
        zs = np.linspace(0.05, 2.95, 40)
        for shape in ((3, 5), (0.4, 2.7), (8.1, 0.6)):
            d = SenderDist(*shape, 3)
            cs = [d.cdf(z) for z in zs]
            assert all(c2 >= c1 for c1, c2 in zip(cs, cs[1:]))
            for z in zs:
                assert d.quantile(d.cdf(z)) == pytest.approx(z, abs=1e-8)

    def test_fsd_ordering(self):
        d53, d55, d35 = (SenderDist(a, b, 3) for a, b in ((5, 3), (5, 5), (3, 5)))
        for z in np.linspace(0.0, 3.0, 101):
            assert d53.cdf(z) <= d55.cdf(z) + 1e-12
            assert d55.cdf(z) <= d35.cdf(z) + 1e-12


class TestPartialMoment:
    def test_uniform_mean(self, uniform3):
        assert uniform3.partial_moment(0.0, 1.0) == pytest.approx(1.5, rel=1e-9)

    def test_uniform_log_case(self, uniform3):
        assert uniform3.partial_moment(1.0, -1.0) == pytest.approx(
            math.log(3.0) / 3.0, rel=1e-9
        )

    def test_uniform_tail(self, uniform3):
        assert uniform3.partial_moment(1.75, 1.0) == pytest.approx(
            (9.0 - 1.75**2) / 6.0, rel=1e-9
        )

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1.0, 2.0])
    def test_uniform_closed_forms(self, uniform3, p):
        for c in (0.25, 1.0, 2.2):
            assert uniform3.partial_moment(c, p) == pytest.approx(
                uniform_partial_moment(c, p), rel=1e-9
            )

    @pytest.mark.parametrize("shape", BASELINE_SHAPES)
    def test_analytic_beta_mean(self, shape):
        a, b = shape
        d = SenderDist(a, b, 3)
        assert d.partial_moment(0.0, 1.0) == pytest.approx(
            3.0 * a / (a + b), rel=1e-9
        )

    def test_singular_shapes_match_closed_forms(self):
        # Endpoint-singular densities: the full first moment is the mean and
        # the full mass is 1.
        d = SenderDist(7.03, 0.34, 3)
        assert d.partial_moment(0.0, 1.0) == pytest.approx(d.mean, rel=1e-12)
        assert SenderDist(0.4, 2.7, 3).partial_moment(0.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha", [1.0, 0.9999, 0.5, 0.3])
    def test_inverse_moment_against_scipy(self, alpha):
        # p = -1 with alpha <= 1 is the 2F1 form; scipy integrates
        # z^(alpha-2) against the algebraic weight (zbar - z)^(beta-1).
        for b in (0.34, 1.0, 8.0):
            d = SenderDist(alpha, b, 3)
            norm = 3.0 ** (alpha + b - 1.0) * math.exp(betaln(alpha, b))
            for c in (1e-6, 1.5, 3.0 - 1e-6):
                want, _ = quad(
                    lambda z: z ** (alpha - 2.0), c, 3.0, weight="alg",
                    wvar=(0.0, b - 1.0), epsabs=0.0, epsrel=1e-13, limit=200,
                )
                assert d.partial_moment(c, -1.0) == pytest.approx(want / norm, rel=1e-10)

    def test_inverse_moment_guard(self, uniform3):
        with pytest.raises(DomainError):
            uniform3.partial_moment(0.0, -1.0)
        with pytest.raises(DomainError):
            uniform3.partial_moment(1.0, -1.5)


class TestTruncMean:
    def test_uniform(self, uniform3):
        assert uniform3.trunc_mean(1.75) == pytest.approx(2.375, rel=1e-9)

    def test_unconditional(self):
        assert SenderDist(5, 5, 3).trunc_mean(0.0) == pytest.approx(1.5, rel=1e-9)
        assert SenderDist(3, 5, 3).trunc_mean(0.0) == pytest.approx(1.125, rel=1e-9)

    @pytest.mark.parametrize("shape", BASELINE_SHAPES)
    def test_monotone_and_bounded(self, shape):
        d = SenderDist(*shape, 3)
        grid = np.linspace(0.0, 2.8, 100)
        vals = [d.trunc_mean(c) for c in grid]
        for c, v, v_next in zip(grid, vals, vals[1:] + [3.0]):
            assert max(c, d.mean) - 1e-9 <= v <= 3.0
            assert v_next >= v - 1e-9

    def test_lower_limit_just_below_zero(self):
        # betainc is NaN for a gap y above 1, so the limit must be clamped first.
        for shape in BASELINE_SHAPES:
            d = SenderDist(*shape, 3)
            assert d.trunc_mean(-5e-10) == pytest.approx(d.mean, rel=1e-12)

    def test_exact_thin_tails(self):
        # Against a 50-digit reference from the lower regularized incomplete
        # beta in y = (zbar - c)/zbar, down to tail masses far below 1e-12.
        # E itself carries about ulp(zbar) of rounding, so the bound is
        # absolute in zbar, not relative in E - c.
        eps = np.finfo(float).eps
        shapes = [(1, b, 3) for b in (0.34, 1, 5, 7.487)] + [
            (1.463, 7.487, 3.728), (3, 5, 3), (0.4, 0.34, 2), (7.03, 0.34, 3.37),
        ]
        with mpmath.workdps(50):
            for a, b, zbar in shapes:
                d = SenderDist(a, b, zbar)
                for c in zbar * (1.0 - np.geomspace(0.5, 1e-8, 30)):
                    y = (mpmath.mpf(zbar) - mpmath.mpf(c)) / zbar
                    if a == 1:
                        want = c + zbar * y / (b + 1)
                    else:
                        ratio = mpmath.betainc(b + 1, a, 0, y, regularized=True) / (
                            mpmath.betainc(b, a, 0, y, regularized=True)
                        )
                        want = zbar - zbar * mpmath.mpf(b) / (a + b) * ratio
                    for got in (d.trunc_mean(c), d.tail_moments(c, 1.3)[0]):
                        assert abs(float(got - want)) <= 4.0 * eps * zbar, (a, b, c)
                        assert got > c
        # Where I_y(41, 2) turns subnormal and then 0, the tail mean falls
        # back to its limit c + (zbar - c)/(beta_shape + 1).
        d = SenderDist(2, 40, 1)
        w = np.geomspace(5e-9, 1e-6, 40)
        scalar = np.array([d.trunc_mean(c) for c in 1.0 - w])
        for ez in (scalar, d.tail_moments(1.0 - w, 1.0)[0]):
            assert np.all(np.isfinite(ez))
            np.testing.assert_allclose(ez - (1.0 - w), w / 41.0, rtol=1e-5, atol=0.0)
        # Within the support tolerance of zbar the mean is zbar itself.
        assert SenderDist(5, 5, 3).trunc_mean(3.0 - 1e-12) == 3.0


@pytest.mark.parametrize("q", [1.0, 1.3])
@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
def test_tail_moments_match_scalar(shape, q):
    # The array twin of trunc_mean and partial_moment: the same values, all
    # finite, up to the top of the support, plus the tail mass.
    d = SenderDist(*shape, 3)
    c = np.concatenate((
        np.linspace(0.0, 3.0, 61),
        np.random.default_rng(7).uniform(0.0, 3.0, 40),
        3.0 - np.geomspace(1e-8, 0.5, 20),
    ))
    ez, pm_q, pm_inv, mass = d.tail_moments(c, q)
    assert np.all(np.isfinite([ez, pm_q, pm_inv, mass]))
    for i, x in enumerate(c):
        pm_inv_want = d.partial_moment(max(x, EFFECTIVE_ZERO), -1.0)
        np.testing.assert_allclose(
            [ez[i], pm_q[i], pm_inv[i]],
            [d.trunc_mean(x), d.partial_moment(x, q), pm_inv_want],
            rtol=1e-14, atol=0.0,
        )
        # The tail mass P(z >= c); 1 - cdf carries the cdf's rounding near 1,
        # up to 5e-13 absolute on (2, 0.5).
        np.testing.assert_allclose(mass[i], 1.0 - d.cdf(x), rtol=1e-12, atol=1e-12)


THIN_TAIL_SHAPES = AGREEMENT_SHAPES + ((7.03, 0.34), (0.4, 2.7))


@pytest.mark.parametrize("shape", THIN_TAIL_SHAPES)
def test_moments_exact_in_thin_tails(shape):
    # Against a 40-digit reference in the exact gap y = (zbar - c)/zbar, for
    # c from 0 up to a tail of width 1e-10 zbar. The form
    # 1 - I_{c/zbar}(alpha+p, beta) rounds the gap through c/zbar and is off
    # by up to 2e-8 relative on this grid.
    a, b = shape
    zbar = 3.0
    d = SenderDist(a, b, zbar)
    c = np.concatenate((
        np.linspace(0.0, zbar, 13)[:-1],
        zbar * (1.0 - np.geomspace(0.5, 1e-10, 25)),
    ))
    exponents = (0.0, 0.5, 1.0, 2.0) + ((-1.0,) if a > 1 else ())
    with mpmath.workdps(40):
        norm = mpmath.beta(a, b)

        def want(x: float, p: float) -> mpmath.mpf:
            y = (mpmath.mpf(zbar) - mpmath.mpf(x)) / zbar
            return zbar**p * mpmath.betainc(b, a + p, 0, y) / norm

        for p in exponents:
            ok = c >= EFFECTIVE_ZERO if p == -1.0 else np.full(c.shape, True)
            ref = [want(x, p) for x in c[ok]]
            scalar = [d.partial_moment(x, p) for x in c[ok]]
            if p == -1.0:
                array = d.tail_moments(c, 1.0)[2][ok]
            else:
                array = d.tail_moments(c, p)[1]
            for got in (scalar, array):
                for x, g, w in zip(c[ok], got, ref):
                    assert abs(float((g - w) / w)) <= 1e-13, (shape, p, x)


@pytest.mark.parametrize("shape", THIN_TAIL_SHAPES)
def test_moments_clamp_at_support_edges(shape):
    # Lower limits within the support tolerance outside [0, zbar] take the
    # values at the nearest edge, not NaN.
    d = SenderDist(*shape, 3.0)
    below, above = -5e-10, 3.0 + 5e-10
    for p in (0.0, 0.5, 1.0, 2.0):
        assert d.partial_moment(below, p) == d.partial_moment(0.0, p)
        assert d.partial_moment(above, p) == 0.0
        np.testing.assert_array_equal(d.tail_moments(below, p), d.tail_moments(0.0, p))
        np.testing.assert_array_equal(d.tail_moments(above, p), (3.0, 0.0, 0.0, 0.0))
    assert d.partial_moment(above, -1.0) == 0.0


def test_invalid_shapes_rejected():
    with pytest.raises(ConfigError):
        SenderDist(0.0, 1.0, 3.0)
    with pytest.raises(ConfigError):
        SenderDist(1.0, 1.0, -3.0)


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_shapes_rejected(field, value):
    # An infinite zbar or alpha used to reach a generic ValueError in optimize.
    shape = [2.0, 3.0, 3.0]
    shape[field] = value
    with pytest.raises(ConfigError):
        SenderDist(*shape)
