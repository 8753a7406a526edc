from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from delegate_opt import (
    ModelParams, SenderDist, SeparatingPath, Thresholds, invert_floor, model, pooling_star,
    s_lower,
)
from delegate_opt.errors import ConvergenceError, DomainError
from delegate_opt.quadrature import integrate
from delegate_opt.separating import newton_blocks
from delegate_opt.surplus import sep_part
from delegate_opt.thresholds import STRICTLY_WELL_BEHAVED

from conftest import c_s, mu_prime, random_admissible, v_s, v_z


def entry_action_by_bisection(p: ModelParams, z_l: float) -> float:
    """Independent root of v(n(z_l), s, z_l) - c(s, z_l) = 0 on s > 0."""
    x = model.match_n(p, z_l)

    def f(s):
        return model.surplus_v(p, x, s, z_l) - model.cost_c(p, s, z_l)

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    return brentq(f, 1e-12, hi, xtol=1e-14, rtol=1e-13)


def tau_by_value(path: SeparatingPath, s: float) -> float:
    """Wage integrating the receiver-side integrand v_s + v_z * mu' instead.

    It agrees with ``tau_tilde`` (marginal cost) by the path's defining ODE.
    """
    p = path.params

    def integrand(y):
        mu = path.mu_tilde(y)
        x = model.match_n(p, mu)
        return v_s(p, x, y, mu) + v_z(p, x, y, mu) * mu_prime(path, y)

    return path.t_l + integrate(integrand, path.s_l, s)


def sigma_by_brentq(path: SeparatingPath, z: float) -> float:
    """Independent inverse of mu: brentq on mu(s) - z over a doubled bracket."""

    def f(s: float) -> float:
        return path.mu_tilde(s) - z

    if f(path.s_l) >= 0.0:
        return path.s_l
    hi = 2.0 * path.s_l
    while f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, path.s_l, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


class TestEntryAction:
    def test_normalization_at_zero(self, baseline):
        assert s_lower(baseline, 0.0) == 0.0

    def test_baseline_formula(self, baseline):
        assert s_lower(baseline, 1.0) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_pure_signaling_formula(self):
        p = ModelParams(a=0.0, q=1.5)
        assert s_lower(p, 0.5) == pytest.approx((2.0 * 0.5**3.5) ** 0.5, rel=1e-12)

    def test_against_root_finder(self, rng):
        for _ in range(8):
            p = random_admissible(rng)
            z_l = float(rng.uniform(0.2, 2.5))
            assert s_lower(p, z_l) == pytest.approx(
                entry_action_by_bisection(p, z_l), rel=1e-9
            )


class TestBelief:
    def test_baseline_power_law(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        assert path.mu_tilde(4.0) == pytest.approx(2.0, rel=1e-12)

    def test_initial_condition(self, baseline, rng):
        for z_l in (0.0, 0.3, 1.0, 2.0):
            path = SeparatingPath(baseline, z_l, 3.0)
            assert path.mu_tilde(path.s_l) == pytest.approx(z_l, abs=1e-12)

    def test_baseline_anchored_closed_form(self, baseline):
        # mu(s)^3 = s^1.5 - 2 s^-1.5 when anchored at z_l = 1.
        path = SeparatingPath(baseline, 1.0, 3.0)
        for s in (path.s_l, 2.0, 3.5, path.sigma_tilde(3.0)):
            assert path.mu_tilde(s) ** 3 == pytest.approx(
                s**1.5 - 2.0 * s**-1.5, rel=1e-10
            )

    def test_below_entry_action_raises(self, baseline):
        path = SeparatingPath(baseline, 1.0, 3.0)
        with pytest.raises(DomainError):
            path.mu_tilde(path.s_l * 0.5)

    def test_against_ode_integration(self, rng):
        # Generic numeric integration of the defining ODE is the oracle here.
        for params, z_l in [
            (ModelParams(), 1.0),
            (ModelParams(A=1.3, beta_cost=0.7, a=0.4, k=1.5, q=1.2), 0.5),
            (ModelParams(a=0.0, q=0.8), 0.6),
        ]:
            path = SeparatingPath(params, z_l, 3.0)
            s_end = path.sigma_tilde(3.0)

            def rhs(s, mu):
                x = model.match_n(params, mu[0])
                return [
                    (c_s(params, s, mu[0]) - v_s(params, x, s, mu[0]))
                    / v_z(params, x, s, mu[0])
                ]

            sol = solve_ivp(
                rhs, (path.s_l, s_end), [z_l], rtol=1e-11, atol=1e-12,
                dense_output=True,
            )
            assert sol.success
            for s in np.linspace(path.s_l, s_end, 20):
                assert path.mu_tilde(s) == pytest.approx(
                    float(sol.sol(s)[0]), rel=1e-7
                )


class TestOdeResidual:
    def test_residual_small_on_random_draws(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            z_l = float(rng.choice([0.0, rng.uniform(0.1, 1.5)]))
            path = SeparatingPath(p, z_l, 3.0)
            s_top = path.sigma_tilde(3.0)
            lo = path.s_l + 0.02 * (s_top - path.s_l)
            for s in np.linspace(lo, s_top, 50):
                mu = path.mu_tilde(s)
                x = model.match_n(p, mu)
                resid = (
                    v_s(p, x, s, mu)
                    + v_z(p, x, s, mu) * mu_prime(path, s)
                    - c_s(p, s, mu)
                )
                assert abs(resid) <= 1e-6 * max(1.0, abs(c_s(p, s, mu)))


class TestAction:
    def test_baseline_square(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        assert path.sigma_tilde(1.75) == pytest.approx(3.0625, rel=1e-12)

    def test_pure_signaling_closed_form(self):
        path = SeparatingPath(ModelParams(a=0.0, q=1.0), 0.0, 3.0)
        assert path.sigma_tilde(0.38) == pytest.approx(
            (2.0 / 3.0) ** 0.5 * 0.38**1.5, rel=1e-12
        )

    def test_inverse_at_entry(self, baseline):
        for z_l in (0.0, 0.7, 1.9):
            path = SeparatingPath(baseline, z_l, 3.0)
            assert path.sigma_tilde(z_l) == pytest.approx(path.s_l, abs=1e-12)

    def test_round_trip(self, rng):
        for _ in range(10):
            p = random_admissible(rng)
            z_l = float(rng.choice([0.0, rng.uniform(0.1, 1.5)]))
            path = SeparatingPath(p, z_l, 3.0)
            zs = np.linspace(z_l, 3.0, 37)
            sig = path.sigma_many(zs)
            assert np.max(np.abs(path.mu_tilde(sig) - zs)) <= 1e-8
            assert np.all(np.diff(sig) > 0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("z_l", [0.05, 1.0, 2.5])
    def test_anchored_matches_root_finder(self, a, q, z_l):
        path = SeparatingPath(ModelParams(a=a, q=q), z_l, 3.0)
        zs = np.array([z_l, z_l * (1.0 + 1e-9), 0.5 * (z_l + 3.0), 3.0])
        want = np.array([sigma_by_brentq(path, float(z)) for z in zs])
        assert np.all(np.abs(path.sigma_many(zs) - want) <= 1e-12 * want)
        assert type(path.sigma_tilde(zs[2])) is float

    def test_domain_error_beyond_support(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        with pytest.raises(DomainError):
            path.sigma_tilde(3.5)


class TestWage:
    def test_baseline_closed_form(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        assert path.tau_tilde(3.0625) == pytest.approx(
            (2.0 / 3.0) * 3.0625**1.5, rel=1e-12
        )
        assert path.tau_tilde(3.0625) == pytest.approx(3.572917, abs=5e-7)

    def test_starts_at_floor(self, baseline):
        for z_l in (0.0, 1.0):
            path = SeparatingPath(baseline, z_l, 3.0)
            assert path.tau_tilde(path.s_l) == pytest.approx(path.t_l, abs=1e-12)

    def test_pure_signaling_value(self):
        path = SeparatingPath(ModelParams(a=0.0, q=1.0), 0.0, 3.0)
        assert path.tau_tilde(path.sigma_tilde(0.38)) == pytest.approx(0.0722, abs=1e-6)

    def test_fast_path_matches_quadrature(self, rng):
        # z_l = 0 closed form vs the receiver-side integral form.
        for _ in range(6):
            p = random_admissible(rng)
            path = SeparatingPath(p, 0.0, 3.0)
            s = float(rng.uniform(0.3, 1.0)) * path.sigma_tilde(3.0)
            assert path.tau_tilde(s) == pytest.approx(
                tau_by_value(path, s), rel=1e-8, abs=1e-9
            )

    def test_two_forms_agree_anchored(self, rng):
        for _ in range(6):
            p = random_admissible(rng)
            z_l = float(rng.uniform(0.1, 1.2))
            path = SeparatingPath(p, z_l, 3.0)
            s_top = path.sigma_tilde(3.0)
            for frac in (0.25, 0.6, 1.0):
                s = path.s_l + frac * (s_top - path.s_l)
                cost_form = path.tau_tilde(s)
                value_form = tau_by_value(path, s)
                assert cost_form == pytest.approx(value_form, rel=1e-8, abs=1e-8)

    def test_integrand_forms_agree_pointwise(self, rng):
        for _ in range(6):
            p = random_admissible(rng)
            z_l = float(rng.choice([0.0, 0.8]))
            path = SeparatingPath(p, z_l, 3.0)
            s_top = path.sigma_tilde(3.0)
            for s in np.linspace(path.s_l + 0.05 * (s_top - path.s_l), s_top, 20):
                mu = path.mu_tilde(s)
                x = model.match_n(p, mu)
                receiver = v_s(p, x, s, mu) + v_z(p, x, s, mu) * mu_prime(path, s)
                sender = c_s(p, s, mu)
                assert receiver == pytest.approx(sender, rel=1e-8, abs=1e-8)

    def test_domain_error_beyond_top(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        with pytest.raises(DomainError):
            path.tau_tilde(path.sigma_tilde(3.0) * 1.01)

    @pytest.mark.parametrize("z_l", [0.0, 0.4, 1.7])
    @pytest.mark.parametrize("p", [ModelParams(), ModelParams(a=0.9, q=2.0, k=2.5),
                                   ModelParams(a=0.0, q=0.0)])
    def test_domain_boundary_at_the_top(self, p, z_l):
        # tau is defined up to mu(s) = zbar (1 + 1e-9): an action a part in
        # 1e12 below that edge passes, and one a part in 1e12 above raises.
        zbar, edge = 3.0, 3.0 * (1.0 + 1e-9)
        s_edge = SeparatingPath(p, z_l, 2.0 * zbar).sigma_tilde(edge)
        path = SeparatingPath(p, z_l, zbar)
        assert path.tau_tilde(s_edge * (1.0 - 1e-12)) > path.t_l
        with pytest.raises(DomainError):
            path.tau_tilde(s_edge * (1.0 + 1e-12))


class TestRents:
    def test_sender_rent_nondecreasing_and_floor(self, baseline):
        for z_l in (0.0, 1.0):
            path = SeparatingPath(baseline, z_l, 3.0)
            zs = np.linspace(z_l, 3.0, 25)
            rents = [path.sender_rent(float(z)) for z in zs]
            assert all(b >= a - 1e-9 for a, b in zip(rents, rents[1:]))
            floor = path.t_l - model.cost_c(baseline, path.s_l, z_l)
            assert rents[0] == pytest.approx(floor, abs=1e-10)
            assert floor >= -1e-12
            if z_l > 0:
                assert floor == pytest.approx(0.0, abs=1e-12)

    def test_receiver_rent_nonnegative_nondecreasing(self, baseline):
        path = SeparatingPath(baseline, 0.0, 3.0)
        zs = np.linspace(0.0, 3.0, 25)
        rents = [path.receiver_rent(float(z)) for z in zs]
        assert all(r >= -1e-12 for r in rents)
        assert all(b >= a - 1e-9 for a, b in zip(rents, rents[1:]))


_P, _D = ModelParams(), SenderDist(1, 1, 3)
_PATH0, _PATH1 = SeparatingPath(_P, 0.0, 3.0), SeparatingPath(_P, 0.5, 3.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _D.cdf(np.nan),
        lambda: _D.pdf(np.nan),
        lambda: _D.pdf(np.array([1.0, np.nan])),
        lambda: _D.partial_moment(1.0, np.nan),
        lambda: _D.partial_moment(1.0, np.inf),
        lambda: _D.partial_moment(1.0, 1e300),
        lambda: _PATH0.sigma_tilde(np.nan),
        lambda: _PATH1.sigma_many(np.array([1.0, np.nan])),
        lambda: _PATH0.tau_tilde(np.nan),
        lambda: _PATH1.tau_tilde(np.nan),
        lambda: _PATH0.mu_tilde(np.nan),
        lambda: _PATH1.mu_tilde(np.nan),
        lambda: _PATH0.mu_tilde(np.inf),
        lambda: _PATH1.mu_tilde(np.inf),
        lambda: s_lower(_P, np.nan),
        lambda: s_lower(_P, np.inf),
        lambda: s_lower(_P, 1e300),
    ],
    ids=["cdf-nan", "pdf-nan", "pdf-array-nan", "moment-order-nan",
         "moment-order-inf", "moment-overflow", "sigma-nan", "sigma-many-nan",
         "tau-nan", "tau-nan-z_l", "mu-nan", "mu-nan-z_l", "mu-inf", "mu-inf-z_l",
         "s_lower-nan", "s_lower-inf", "s_lower-overflow"],
)
def test_nan_and_overflow_are_domain_errors(call):
    # Each of these returned NaN, inf or (the density) 0, or raised a generic
    # OverflowError or RuntimeWarning: a bound check written as x < lo or
    # x > hi lets NaN pass, and one written as x > lo lets inf pass.
    with pytest.raises(DomainError):
        call()


_THRESHOLDS = dict(z_l=0.5, z_h=1.0, s_l=0.1, s_h=0.2, t_l=0.1, t_h=0.2, x_h=1.0,
                   eq_class=STRICTLY_WELL_BEHAVED)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _D.quantile(1.5),
        lambda: _D.quantile(np.nan),
        lambda: _D.partial_moment(-1.0, 1.0),
        lambda: _D.trunc_mean(-1.0),
        lambda: _D.trunc_mean(np.nan),
        lambda: SeparatingPath(_P, 3.0, 3.0),
        lambda: pooling_star(_P, _D, 3.0),
        lambda: invert_floor(_P, _D, 1e6),
        lambda: Thresholds(**dict(_THRESHOLDS, z_l=1.5)),
        lambda: Thresholds(**dict(_THRESHOLDS, t_h=0.05)),
        lambda: sep_part(_P, _D, _PATH1, 0.4999, 2.0),
        lambda: sep_part(_P, _D, _PATH1, 0.5, 3.001),
        lambda: sep_part(_P, _D, _PATH1, 0.5, np.nan),
    ],
    ids=["quantile-above-1", "quantile-nan", "moment-below-support", "trunc-mean-below",
         "trunc-mean-nan", "path-at-zbar", "pooling-star-at-zbar", "floor-above-top",
         "thresholds-z_l-above-z_h", "thresholds-t_h-below-t_l", "sep-part-below-z_l",
         "sep-part-above-zbar", "sep-part-nan"],
)
def test_out_of_range_inputs_are_domain_errors(call):
    # Each bound check that raises here is one no other test reaches.
    with pytest.raises(DomainError):
        call()


def test_newton_blocks_keeps_each_element_at_its_own_block():
    # x <- x - (x - 1)/2 halves the distance to 1 at every step. From 2, the
    # step first meets 1e-6 x at step 20, the end of the fifth block of 4;
    # from 1e6 + 1 at step 40. In one batch, the first element keeps its
    # fifth block's result, as alone. An element that never converges
    # raises after the 100-step budget, with the caller's message.
    def halve(x):
        return 0.5 * (x - 1.0)

    alone = newton_blocks(halve, np.array([2.0]), 1e-6, "halve")
    batch = newton_blocks(halve, np.array([2.0, 1e6 + 1.0]), 1e-6, "halve")
    assert alone[0] == batch[0] == 1.0 + 2.0**-20
    assert batch[1] == 1.0 + 1e6 * 2.0**-40
    steps = []
    with pytest.raises(ConvergenceError, match="stuck"):
        newton_blocks(lambda x: steps.append(x) or np.ones_like(x), np.ones(2), 1e-12, "stuck")
    assert len(steps) == 100
