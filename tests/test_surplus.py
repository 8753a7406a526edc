from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaln

from delegate_opt import (
    ModelParams,
    SenderDist,
    SeparatingPath,
    optimize,
    pi_p,
    pi_s,
    pi_w,
    well_behaved_gain,
)
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.quadrature import REL_TOL
from delegate_opt.thresholds import pooled_action
from delegate_opt.errors import DomainError
from delegate_opt.surplus import LinePass, dist_side, pool_part, sep_part

from conftest import AGREEMENT_SHAPES, BASELINE_SHAPES, edge_pass, random_admissible


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

    @pytest.mark.parametrize(
        "params, shape, z_l, z_hi",
        [
            (ModelParams(a=0.89, q=1.99), (0.57, 1.26, 1.27), 8.37e-3, 0.088),
            (ModelParams(a=0.73, q=0.55), (1.82, 0.47, 1.30), 1.07e-4, 0.028),
            (ModelParams(a=0.9, q=1.29), (2.52, 0.67, 1.33), 1.75e-5, 0.088),
            (ModelParams(a=0.5), (1, 1, 3), 0.01, 1.5),
        ],
    )
    def test_anchored_sep_part_against_mpmath(self, params, shape, z_l, z_hi):
        # A 30-digit reference from the model's primitives alone: sigma by
        # findroot on the closed form mu^(2+q) = c1 s^(2-a) + kappa s^(-a(2+q))
        # between s_l and an action above sigma, and mp.quad over the type.
        p, d = params, SenderDist(*shape)
        with mpmath.workdps(30):
            A, k, beta, a, q = (mpmath.mpf(v) for v in (p.A, p.k, p.beta_cost, p.a, p.q))
            alpha, b, zbar, zl = (mpmath.mpf(v) for v in (*shape, z_l))
            q2 = 2 + q
            c1 = 2 * beta * q2 / (A * k * (2 + a + a * q))
            s_l = (A * k * zl**q2 / beta) ** (1 / (2 - a))
            kappa = s_l ** (a * q2) * (zl**q2 - c1 * s_l ** (2 - a))
            norm = zbar ** (alpha + b - 1) * mpmath.beta(alpha, b)

            def density(z):
                # A bracket: mu(s_l) = z_l <= z, and at s = above, where
                # s >= 2 s_l, kappa s^(-a(2+q)) >= -c1 s_l^(2-a) >= -c1 s^(2-a) / 2
                # while c1 s^(2-a) / 2 >= z^(2+q), as a < 1.
                above = 2 * (z**q2 / c1) ** (1 / (2 - a)) + 2 * s_l
                sig = mpmath.findroot(
                    lambda s: c1 * s ** (2 - a) + kappa * s ** (-a * q2) - z**q2,
                    (s_l, above), solver="anderson",
                )
                net = A * k * z ** (q + 1) * sig**a - beta * sig**2 / z
                return net * z ** (alpha - 1) * (zbar - z) ** (b - 1) / norm

            want = mpmath.quad(density, [zl, mpmath.mpf(z_hi)])
        got = sep_part(p, d, SeparatingPath(p, z_l, d.zbar), z_l, z_hi)
        assert abs(got - want) <= REL_TOL * abs(want)

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

    def test_follows_classify(self, baseline, uniform3):
        # pi_w reads the equilibrium off resolve's record, so a pair within
        # EFFECTIVE_ZERO of the diagonal or of zbar is priced as the pooling
        # or separating equilibrium that classify snaps it to.
        near_pool = pi_w(baseline, uniform3, 1.0, 1.0 + 5e-7)
        assert near_pool.total == pi_p(baseline, uniform3, 1.0)
        assert (near_pool.z_l, near_pool.z_h) == (1.0, 1.0)
        near_top = pi_w(baseline, uniform3, 0.0, uniform3.zbar - 5e-7)
        assert near_top.total == pi_s(baseline, uniform3)
        assert near_top.z_h == uniform3.zbar
        for shape in BASELINE_SHAPES:
            d = SenderDist(*shape, 3)
            out = optimize(baseline, d)
            rec = out.thresholds
            assert out.surplus == pi_w(baseline, d, rec.z_l, rec.z_h), shape


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
    # The edge Pi_w(0, z) and the diagonal Pi_p(z) in one line_pass, at
    # seeded points plus the thin tail near zbar, equal the scalar pi_w and
    # pi_p bit for bit.
    rng = np.random.default_rng(5)
    d = SenderDist(*shape, 3)
    z = np.append(rng.uniform(EFFECTIVE_ZERO, 3.0, 25), [3.0 - 1e-3])
    for p in (ModelParams(), random_admissible(rng), random_admissible(rng)):
        lines = edge_pass(p, d, z)
        edge, diag = lines.edge[0], lines.diag[0]
        want = [
            [pi_w(p, d, 0.0, float(zi)).total for zi in z],
            [pi_p(p, d, float(zi)) for zi in z],
        ]
        np.testing.assert_array_equal([edge, diag], want)


def test_line_pass_evaluates_both_lines_at_every_point():
    # Both lines are finite and apart across [EFFECTIVE_ZERO, zbar -
    # EFFECTIVE_ZERO], both ends included, where the edge solves its top
    # system.
    d, p = SenderDist(2, 0.5, 3), ModelParams(a=0.3, q=1.4)
    z = np.array([EFFECTIVE_ZERO, 0.4, 2.1, 3.0 - EFFECTIVE_ZERO])
    lines = edge_pass(p, d, z)
    assert np.isfinite(lines.edge).all() and np.isfinite(lines.diag).all()
    assert np.isfinite(lines.sig).all() and np.isfinite(lines.s_h).all()
    assert (lines.edge[0] != lines.diag[0]).all()


@pytest.mark.parametrize("z", [0.0, 0.5 * EFFECTIVE_ZERO, 3.0 - 1e-7, 3.0 - 1e-10, 3.0, math.nan])
def test_line_pass_outside_the_interior_is_a_domain_error(z):
    # The corners are closed forms that optimize prices itself; a pass takes
    # no point outside [EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO], not even
    # among points inside it.
    d = SenderDist(2, 0.5, 3)
    with pytest.raises(DomainError, match="outside"):
        edge_pass(ModelParams(), d, [1.0, z, 2.0])


def _arrays(fields) -> list:
    """The arrays of a LinePass or DistSide, its tuples flattened."""
    return [a for f in fields for a in (f if isinstance(f, tuple) else (f,))]


@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
def test_one_dist_side_serves_every_params_of_its_q(shape):
    # A pass on a shared read-only side equals a pass that builds its own,
    # bit for bit in every field, for several parameters with the side's q:
    # at both ends of the interior and in the thin tail.
    rng = np.random.default_rng(17)
    d = SenderDist(*shape, 3)
    ends = [EFFECTIVE_ZERO, 3.0 - EFFECTIVE_ZERO]
    thin = [3.0 - 1e-3, 3.0 - 1e-4, 3.0 - 1e-5]
    inner = np.array([EFFECTIVE_ZERO, 1.3, *thin])
    for z in (np.append(rng.uniform(EFFECTIVE_ZERO, 3.0, 20), ends + thin), inner):
        for q in (1.0, float(rng.uniform(0.0, 2.0))):
            side = dist_side(d, q, z)
            for a in _arrays(side):
                a.flags.writeable = False
            for p in (ModelParams(q=q), *(replace(random_admissible(rng), q=q) for _ in range(2))):
                shared, own = edge_pass(p, d, z, side=side), edge_pass(p, d, z)
                for field, x, y in zip(LinePass._fields, shared, own):
                    x, y = _arrays([x]), _arrays([y])
                    assert [a.tobytes() for a in x] == [b.tobytes() for b in y], (p, field)


# The shapes and parameters the slope test adds to the seeded box: the
# endpoint-singular shapes, the two thin-tail configurations of
# test_optimizer.py, and a tiny positive signal productivity.
SLOPE_CASES = [
    (ModelParams(), (2, 0.5, 3)),
    (ModelParams(), (0.7, 0.7, 3)),
    (ModelParams(a=0.74), (7.03, 0.34, 3.37)),
    (
        ModelParams(a=0.31987239932116085, q=1.0381969729919802, k=2.4131184581963065),
        (1.4631795411914794, 7.487329320767199, 3.727537941971651),
    ),
    (ModelParams(A=0.5, beta_cost=0.2, a=0.6736, k=0.5, q=1.9786), (2.2615, 6.6962, 1.0)),
    (
        ModelParams(A=0.7597, beta_cost=0.2986, a=1.16e-281, k=1.607, q=0.2044),
        (1.2926, 3.2237, 2.9996),
    ),
]


def _seeded_slope_cases():
    rng = np.random.default_rng(11)
    cases = [(ModelParams(), (*shape, 3)) for shape in AGREEMENT_SHAPES]
    for _ in range(8):
        shape = (*rng.uniform(0.3, 8.0, 2), float(rng.uniform(0.5, 4.0)))
        cases.append((random_admissible(rng), shape))
    return cases + SLOPE_CASES


@pytest.mark.parametrize("params, shape", _seeded_slope_cases())
def test_line_slopes_match_central_differences(params, shape):
    # Both closed-form slopes against central differences of their own
    # values, from near the corner up to 0.99 zbar (inside the thin tail of
    # the thin-tail shapes), with steps that shrink toward either end. Closer
    # to the top of a beta_shape < 1 density, the pooled action's 1e-12
    # Newton tolerance swamps the differences.
    d = SenderDist(*shape)
    z = d.zbar * np.linspace(0.01, 0.99, 50)
    h = 1e-4 * np.minimum(z, d.zbar - z)
    for line in ("edge", "diag"):
        _, slope = getattr(edge_pass(params, d, z), line)
        up, down = (getattr(edge_pass(params, d, x), line)[0] for x in (z + h, z - h))
        np.testing.assert_allclose(
            slope, (up - down) / (2.0 * h), rtol=1e-5, atol=1e-7, err_msg=line
        )


def test_pool_part_zero_action_has_no_cost(uniform3):
    # a = 0: the zero pooled action still produces, and its cost term is
    # defined as zero despite the divergent 1/z weight.
    p = ModelParams(a=0.0)
    assert pool_part(p, uniform3, 0.0, 0.0) == pytest.approx(
        1.5 * uniform3.partial_moment(0.0, 1.0), rel=1e-9
    )
    # a > 0: a zero action produces nothing at all.
    assert pool_part(ModelParams(), uniform3, 0.0, 0.0) == 0.0
