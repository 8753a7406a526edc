from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln

from delegate_opt import (
    ModelParams,
    SenderDist,
    SeparatingPath,
    pi_p,
    pi_s,
    pi_w,
    well_behaved_gain,
)
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.thresholds import pooled_action
from delegate_opt.surplus import pi_p_many, pi_w_edge, pool_part, sep_part

from conftest import AGREEMENT_SHAPES, BASELINE_SHAPES, random_admissible


def uniform_oracle_parts(z_h: float, s_h: float) -> tuple[float, float]:
    """Closed-form parts for Beta(1,1) on [0,3] at baseline parameters with
    z_l = 0: separating z_h^4/24, pooling in power/log terms."""
    sep = z_h**4 / 24.0
    pool = (
        math.sqrt(s_h) * ((z_h + 3.0) / 2.0) * ((9.0 - z_h**2) / 6.0)
        - 0.5 * s_h**2 * (math.log(3.0) - math.log(z_h)) / 3.0
    )
    return sep, pool


class TestPiW:
    def test_baseline_design1_point(self, baseline, uniform3):
        b = pi_w(baseline, uniform3, 0.0, 1.75)
        assert b.separating_part == pytest.approx(1.75**4 / 24.0, abs=1e-8)
        assert b.total == pytest.approx(3.497, abs=2e-3)
        assert b.total == b.separating_part + b.pooling_part

    def test_full_delegation_uniform(self, baseline, uniform3):
        assert pi_s(baseline, uniform3) == pytest.approx(3.375, abs=1e-8)

    def test_degenerate_pooling_pure_signaling(self):
        p = ModelParams(a=0.0)
        d = SenderDist(1, 1, 3)
        b = pi_w(p, d, 0.0, 0.0)
        assert b.separating_part == 0.0
        assert b.total == pytest.approx(1.5 * 1.5, rel=1e-9)  # A k E[z] PM(0, q)

    def test_uniform_oracle_random_zh(self, baseline, uniform3, rng):
        path = SeparatingPath(baseline, 0.0, 3.0)
        for _ in range(20):
            z_h = float(rng.uniform(0.1, 2.9))
            s_h = pooled_action(baseline, uniform3, path, z_h)
            sep_o, pool_o = uniform_oracle_parts(z_h, s_h)
            b = pi_w(baseline, uniform3, 0.0, z_h)
            assert b.separating_part == pytest.approx(sep_o, abs=1e-8)
            assert b.pooling_part == pytest.approx(pool_o, abs=1e-8)

    def test_sep_slice_against_scipy(self, rng):
        # anchored path, independent scalar quadrature
        p = ModelParams(A=1.2, beta_cost=0.6, a=0.3, k=1.1, q=1.4)
        d = SenderDist(3, 5, 3)
        path = SeparatingPath(p, 0.7, 3.0)

        def integrand(z):
            sig = path.sigma_tilde(z)
            return (p.A * p.k * z ** (p.q + 1) * sig**p.a - p.beta_cost * sig**2 / z) * d.pdf(z)

        for z_l, z_h in ((0.7, 1.5), (1.2, 2.9)):
            want, _ = quad(integrand, z_l, z_h, epsabs=1e-12, epsrel=1e-11)
            assert sep_part(p, d, path, z_l, z_h) == pytest.approx(want, rel=1e-8)

    def test_edge_sep_part_exact_value(self, baseline):
        # Baseline edge: sigma = z^(3/2), net density z^3 / 2; for
        # 3 * Beta(2, 1/2), E[z^3] = 27 B(5, 1/2) / B(2, 1/2) = 576/35.
        d = SenderDist(2, 0.5, 3)
        path = SeparatingPath(baseline, 0.0, 3.0)
        assert sep_part(baseline, d, path, 0.0, 3.0) == pytest.approx(288 / 35, rel=1e-14)

    def test_edge_sep_part_against_scipy(self):
        # Endpoint-singular density (beta_shape < 1): scipy's algebraic-weight
        # quadrature of the net density built from sigma itself.
        p = ModelParams(a=0.74)
        d = SenderDist(7.03, 0.34, 3.37)
        path = SeparatingPath(p, 0.0, d.zbar)
        norm = d.zbar ** (d.alpha + d.beta_shape - 1.0) * math.exp(
            betaln(d.alpha, d.beta_shape)
        )

        def net(z):
            if z == 0.0:  # sigma(0) = 0; the weight evaluates the endpoint
                return 0.0
            sig = path.sigma_tilde(z)
            return p.A * p.k * z ** (p.q + 1) * sig**p.a - p.beta_cost * sig**2 / z

        want, _ = quad(
            net, 0.0, d.zbar, weight="alg", wvar=(d.alpha - 1.0, d.beta_shape - 1.0),
            epsabs=0.0, epsrel=1e-13,
        )
        assert sep_part(p, d, path, 0.0, d.zbar) == pytest.approx(want / norm, rel=1e-10)
        part, _ = quad(lambda z: net(z) * d.pdf(z), 0.0, 2.0, epsabs=0.0, epsrel=1e-13)
        assert sep_part(p, d, path, 0.0, 2.0) == pytest.approx(part, rel=1e-10)

    @pytest.mark.parametrize(
        "params, shape, z_l",
        [
            (ModelParams(a=0.74), (7.03, 0.34, 3.37), 0.5),
            (ModelParams(a=0.2, q=0.5, k=2.0), (2, 0.5, 3), 1.0),
        ],
    )
    def test_anchored_sep_part_against_scipy(self, params, shape, z_l):
        # Endpoint-singular density on a path anchored at z_l > 0: scipy's
        # algebraic-weight quadrature over the type, with sigma by inversion.
        p, d = params, SenderDist(*shape)
        path = SeparatingPath(p, z_l, d.zbar)
        norm = d.zbar ** (d.alpha + d.beta_shape - 1.0) * math.exp(
            betaln(d.alpha, d.beta_shape)
        )

        def net(z):
            sig = path.sigma_tilde(z)
            return (
                p.A * p.k * z ** (p.q + 1) * sig**p.a - p.beta_cost * sig**2 / z
            ) * z ** (d.alpha - 1.0)

        want, _ = quad(
            net, z_l, d.zbar, weight="alg", wvar=(0.0, d.beta_shape - 1.0),
            epsabs=0.0, epsrel=1e-13,
        )
        assert sep_part(p, d, path, z_l, d.zbar) == pytest.approx(want / norm, rel=1e-10)

    def test_transfer_free_scaling(self, rng):
        for _ in range(5):
            p = random_admissible(rng)
            d = SenderDist(5, 3, 3)
            lam = float(rng.uniform(1.5, 4.0))
            scaled = replace(p, A=lam * p.A, beta_cost=lam * p.beta_cost)
            b1 = pi_w(p, d, 0.0, 1.4)
            b2 = pi_w(scaled, d, 0.0, 1.4)
            assert b2.total == pytest.approx(lam * b1.total, rel=1e-10)

    def test_pooling_boundary_continuity(self, baseline, uniform3):
        target = pi_p(baseline, uniform3, 1.0)
        gaps = [
            abs(pi_w(baseline, uniform3, 1.0, 1.0 + eps).total - target)
            for eps in (1e-3, 1e-4, 1e-5)
        ]
        assert gaps[0] < 0.05 and gaps[2] < gaps[0]
        assert gaps[2] < 1e-3

    def test_separating_boundary_continuity(self, baseline, uniform3):
        target = pi_s(baseline, uniform3)
        for eps in (1e-4, 1e-6):
            got = pi_w(baseline, uniform3, 0.0, 3.0 - eps).total
            assert got == pytest.approx(target, abs=5e-3 if eps > 1e-5 else 1e-4)

    def test_rejects_bad_interval(self, baseline, uniform3):
        with pytest.raises(Exception):
            pi_w(baseline, uniform3, 2.0, 1.0)


class TestPiP:
    def test_identity_with_pi_w_diagonal(self, baseline, uniform3):
        for z in (0.0, 0.5, 1.0, 2.0):
            assert pi_p(baseline, uniform3, z) == pytest.approx(
                pi_w(baseline, uniform3, z, z).total, abs=1e-8
            )

    def test_baseline_value_against_oracle(self, baseline, uniform3):
        # s* = 4^(2/3); uniform closed-form pooling integrals
        s_star = 4.0 ** (2.0 / 3.0)
        want = (
            math.sqrt(s_star) * 2.0 * ((9.0 - 1.0) / 6.0)
            - 0.5 * s_star**2 * (math.log(3.0) - 0.0) / 3.0
        )
        assert pi_p(baseline, uniform3, 1.0) == pytest.approx(want, rel=1e-8)

    def test_small_qa_limit_is_mean_value(self):
        # z* -> 0 with q = a -> 0 approaches A k mu_z
        p = ModelParams(a=1e-5, q=1e-5)
        d = SenderDist(1, 1, 3)
        assert pi_p(p, d, 1e-4) == pytest.approx(1.5, rel=5e-3)


class TestWellBehavedGain:
    def test_limit_value_uniform(self, baseline, uniform3):
        gap = well_behaved_gain(baseline, uniform3, 1e-4, 1e-4, 1e-3)
        assert gap == pytest.approx(0.75, rel=0.05)

    def test_positive_at_desk_scale(self, baseline):
        for shape in BASELINE_SHAPES:
            d = SenderDist(*shape, 3)
            assert well_behaved_gain(baseline, d, 0.01, 0.01, 0.05) > 0.0

    def test_vanishes_at_full_support(self, baseline, uniform3):
        assert well_behaved_gain(baseline, uniform3, 0.01, 0.01, 3.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_pooling_dominates_separating_somewhere(self, baseline):
        # given tiny q, a there is a z* with pooling beating full delegation
        p = replace(baseline, q=0.01, a=0.01)
        for shape in BASELINE_SHAPES:
            d = SenderDist(*shape, 3)
            full = pi_s(p, d)
            grid = np.linspace(3.0 / 50.0, 3.0 * 49.0 / 50.0, 49)
            assert any(pi_p(p, d, float(z)) > full for z in grid)


@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
def test_batched_lines_match_scalar(shape):
    # The edge Pi_w(0, z) and the diagonal Pi_p(z) in one batch each, at
    # seeded points plus the thin tail near zbar and the top guard.
    rng = np.random.default_rng(5)
    d = SenderDist(*shape, 3)
    z = np.append(rng.uniform(EFFECTIVE_ZERO, 3.0, 25), [3.0 - 1e-3, 3.0 - 1e-10])
    for p in (ModelParams(), random_admissible(rng), random_admissible(rng)):
        moments = d.tail_moments(z, p.q)
        edge, diag = pi_w_edge(p, d, z, moments), pi_p_many(p, d, z, moments)
        want = [
            [pi_w(p, d, 0.0, float(zi)).total for zi in z],
            [pi_p(p, d, float(zi)) for zi in z],
        ]
        np.testing.assert_allclose([edge, diag], want, rtol=1e-12, atol=0.0)


def test_pool_part_zero_action_has_no_cost(uniform3):
    # a = 0: the zero pooled action still produces, and its cost term is
    # defined as zero despite the divergent 1/z weight.
    p = ModelParams(a=0.0)
    assert pool_part(p, uniform3, 0.0, 0.0) == pytest.approx(
        1.5 * uniform3.partial_moment(0.0, 1.0), rel=1e-9
    )
    # a > 0: a zero action produces nothing at all.
    assert pool_part(ModelParams(), uniform3, 0.0, 0.0) == 0.0
