from __future__ import annotations

import numpy as np
import pytest

from delegate_opt import (
    ModelParams,
    SenderDist,
    SeparatingPath,
    invert_cap,
    invert_floor,
    model,
    pooling_star,
    quadrature,
    separating,
    solve_bottom,
    solve_top,
)
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.errors import DegenerateTailError, DomainError
from delegate_opt.thresholds import (
    POOLING,
    SEPARATING,
    STRICTLY_WELL_BEHAVED,
    classify,
    pooled_action,
    pooled_action_many,
    resolve,
)

from conftest import BASELINE_SHAPES, random_admissible


@pytest.fixture
def path0(baseline):
    return SeparatingPath(baseline, 0.0, 3.0)


class TestSolveBottom:
    def test_zero_normalization(self, baseline, uniform3):
        assert solve_bottom(baseline, uniform3, 0.0) == (0.0, 0.0)

    def test_baseline_interior(self, baseline, uniform3):
        s_l, t_l = solve_bottom(baseline, uniform3, 1.0)
        assert s_l == pytest.approx(1.587401, abs=1e-6)
        assert t_l == pytest.approx(0.5 * s_l**2, rel=1e-12)
        # entry is bilaterally efficient: v = t_l at the bottom match
        assert model.surplus_v(baseline, 1.0, s_l, 1.0) == pytest.approx(t_l, rel=1e-9)

    def test_pure_signaling_interior(self):
        p = ModelParams(a=0.0, q=1.5)
        d = SenderDist(1, 1, 3)
        s_l, t_l = solve_bottom(p, d, 0.5)
        assert s_l == pytest.approx(0.420448, abs=1e-6)
        assert t_l == pytest.approx(0.5 * s_l**2 / 0.5, rel=1e-9)

    def test_floor_round_trip(self, baseline, uniform3):
        for z_l in (0.0, 0.4, 1.3):
            _, t_l = solve_bottom(baseline, uniform3, z_l)
            assert invert_floor(baseline, uniform3, t_l) == pytest.approx(z_l, abs=1e-9)

    @pytest.mark.parametrize("t_l", [1e-30, 1e-20, 1e-14])
    def test_tiny_floor_inverts(self, baseline, uniform3, t_l):
        # A tiny floor is a tiny entry type, snapped to the z_l = 0
        # normalization below EFFECTIVE_ZERO, not a root-finder failure.
        z_l = invert_floor(baseline, uniform3, t_l)
        if z_l == 0.0:
            assert solve_bottom(baseline, uniform3, EFFECTIVE_ZERO)[1] > t_l
        else:
            assert z_l >= EFFECTIVE_ZERO
            assert solve_bottom(baseline, uniform3, z_l)[1] == pytest.approx(t_l, rel=1e-12)


class TestSolveTop:
    def test_design1_baseline_cell(self, baseline, uniform3, path0):
        s_h, t_h = solve_top(baseline, uniform3, path0, 1.75)
        assert 4.70 <= s_h <= 4.73
        assert t_h == pytest.approx(7.2348, abs=2e-3)

    def test_pure_signaling_cell(self):
        # Cross-validated analytically: t_h = z_h^2/6 + beta s_h^2 / z_h.
        p = ModelParams(a=0.0, q=1.0)
        d = SenderDist(1, 1, 3)
        path = SeparatingPath(p, 0.0, 3.0)
        s_h, t_h = solve_top(p, d, path, 0.38)
        assert s_h == pytest.approx(0.644, abs=2e-3)
        assert t_h == pytest.approx(0.57, abs=1e-3)
        assert t_h == pytest.approx(0.38**2 / 6.0 + 0.5 * s_h**2 / 0.38, rel=1e-9)

    def test_limit_to_entry_pair_at_zero(self, baseline, uniform3, path0):
        s_prev, t_prev = np.inf, np.inf
        for dd in (2, 3, 4, 5, 6):
            s_h, t_h = solve_top(baseline, uniform3, path0, 10.0**-dd)
            assert 0.0 < s_h < s_prev
            assert 0.0 < t_h < t_prev
            s_prev, t_prev = s_h, t_h
        assert s_prev <= 1e-6 and t_prev <= 1e-8

    @pytest.mark.parametrize("z_l", [0.0, 0.5, 1.0])
    def test_limit_matches_pooling_star(self, baseline, uniform3, z_l):
        path = SeparatingPath(baseline, z_l, 3.0)
        s_star, t_star = pooling_star(baseline, uniform3, z_l)
        s_h, t_h = solve_top(baseline, uniform3, path, z_l + 1e-5)
        assert s_h == pytest.approx(s_star, abs=1e-3)
        assert t_h == pytest.approx(t_star, abs=1e-3)

    def test_retrievals_agree_random(self, rng):
        shapes = [(1, 1), (5, 5), (3, 5), (5, 3)]
        for _ in range(20):
            p = random_admissible(rng)
            d = SenderDist(*shapes[int(rng.integers(4))], 3)
            z_l = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
            z_h = float(rng.uniform(z_l + 0.1, 2.8))
            path = SeparatingPath(p, z_l, 3.0)
            s_h, t_sellers = solve_top(p, d, path, z_h)
            sig = path.sigma_tilde(z_h)
            x_h = model.match_n(p, z_h)
            t_buyers = (
                p.A * x_h * s_h**p.a * d.trunc_mean(z_h)
                - model.surplus_v(p, x_h, sig, z_h)
                + path.tau_tilde(sig)
            )
            assert abs(t_sellers - t_buyers) <= 1e-6 * max(1.0, abs(t_sellers))

    def test_cap_strictly_increasing(self, baseline, uniform3, path0):
        zs = np.linspace(0.1, 2.9, 29)
        caps = [solve_top(baseline, uniform3, path0, float(z))[1] for z in zs]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_action_above_separating_path(self, rng):
        for _ in range(10):
            p = random_admissible(rng)
            d = SenderDist(1, 1, 3)
            z_l = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
            z_h = float(rng.uniform(z_l + 0.1, 2.8))
            path = SeparatingPath(p, z_l, 3.0)
            s_h, _ = solve_top(p, d, path, z_h)
            assert s_h > path.sigma_tilde(z_h)

    def test_unique_sign_change_above_path(self, rng):
        # Two-root structure: exactly one crossing above the separating path.
        for _ in range(10):
            p = random_admissible(rng)
            d = SenderDist(1, 1, 3)
            z_h = float(rng.uniform(0.4, 2.7))
            path = SeparatingPath(p, 0.0, 3.0)
            sig = path.sigma_tilde(z_h)
            ez = d.trunc_mean(z_h)
            rhs = p.A * p.k * sig**p.a * z_h ** (1 + p.q) - p.beta_cost * sig**2 / z_h

            def resid(s):
                return p.A * p.k * s**p.a * z_h**p.q * ez - p.beta_cost * s**2 / z_h - rhs

            s_max = 2.0 * sig
            while resid(s_max) > 0:
                s_max *= 2.0
            samples = np.linspace(sig * (1 + 1e-9), s_max, 400)
            signs = np.sign([resid(float(s)) for s in samples])
            changes = int(np.sum(np.abs(np.diff(signs)) > 0))
            assert changes == 1

    def test_rejects_degenerate_band(self, baseline, uniform3, path0):
        with pytest.raises(DomainError):
            solve_top(baseline, uniform3, path0, 3.0 - 1e-10)


class TestPoolingStar:
    def test_degenerate_entry(self, baseline, uniform3):
        assert pooling_star(baseline, uniform3, 0.0) == (0.0, 0.0)

    def test_baseline_interior(self, baseline, uniform3):
        s_star, t_star = pooling_star(baseline, uniform3, 1.0)
        assert s_star == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)
        assert t_star == pytest.approx(0.5 * s_star**2, rel=1e-12)
        # receiver-side pooling condition binds
        gross = baseline.A * model.match_n(baseline, 1.0) * s_star**0.5 * 2.0
        assert gross == pytest.approx(t_star, rel=1e-9)

    def test_pure_signaling_exponent_collapse(self, uniform3):
        p = ModelParams(a=0.0, q=0.0)
        for z in (0.3, 1.0, 2.0):
            s_star, t_star = pooling_star(p, uniform3, z)
            ez = uniform3.trunc_mean(z)
            assert s_star == pytest.approx((z * ez / 0.5) ** 0.5, rel=1e-9)
            # both pooling conditions hold with equality
            assert t_star == pytest.approx(0.5 * s_star**2 / z, rel=1e-12)
            assert ez - t_star == pytest.approx(0.0, abs=1e-9)


class TestInvertCap:
    def test_round_trip(self, baseline, uniform3, path0):
        _, t_h = solve_top(baseline, uniform3, path0, 1.75)
        rec = invert_cap(baseline, uniform3, path0, t_h)
        assert rec.z_h == pytest.approx(1.75, abs=1e-8)
        assert rec.eq_class == STRICTLY_WELL_BEHAVED

    def test_floor_cap_is_pooling(self, baseline, uniform3, path0):
        rec = invert_cap(baseline, uniform3, path0, 0.0)
        assert rec.eq_class == POOLING
        assert rec.z_h == 0.0

    def test_slack_cap_is_separating(self, baseline, uniform3, path0):
        rec = invert_cap(baseline, uniform3, path0, path0.top_wage() + 1.0)
        assert rec.eq_class == SEPARATING
        assert rec.z_h == 3.0

    def test_anchored_round_trip(self, baseline, uniform3):
        path = SeparatingPath(baseline, 1.0, 3.0)
        _, t_h = solve_top(baseline, uniform3, path, 2.2)
        rec = invert_cap(baseline, uniform3, path, t_h)
        assert rec.z_h == pytest.approx(2.2, abs=1e-8)

    def test_below_floor_raises(self, baseline, uniform3):
        path = SeparatingPath(baseline, 1.0, 3.0)
        with pytest.raises(DomainError):
            invert_cap(baseline, uniform3, path, path.t_l - 0.1)


class TestClassify:
    def test_regions(self):
        assert classify(0.0, 0.0, 3.0) == POOLING
        assert classify(0.0, 5e-7, 3.0) == POOLING
        assert classify(0.0, 1.5, 3.0) == STRICTLY_WELL_BEHAVED
        assert classify(0.0, 3.0 - 5e-7, 3.0) == SEPARATING
        assert classify(1.0, 1.0, 3.0) == POOLING

    def test_resolve_record_consistency(self, baseline, uniform3):
        rec = resolve(baseline, uniform3, 0.0, 1.75)
        assert rec.t_l == 0.0 and rec.z_l == 0.0
        assert rec.x_h == pytest.approx(1.75)
        assert rec.s_h > rec.s_l
        assert rec.t_h > rec.t_l
        pool = resolve(baseline, uniform3, 0.5, 0.5)
        assert pool.eq_class == POOLING
        assert pool.t_l == pool.t_h
        sep = resolve(baseline, uniform3, 0.0, 3.0)
        assert sep.eq_class == SEPARATING
        assert sep.s_h == pytest.approx(9.0, rel=1e-10)


class TestPooledActionMany:
    @pytest.mark.parametrize(
        "params, shape",
        [(ModelParams(), shape) for shape in BASELINE_SHAPES]
        + [
            (ModelParams(a=0.0), (1, 1)),
            (ModelParams(a=0.6, q=1.5), (5, 3)),
            (ModelParams(a=0.9, q=0.1, k=2.0), (3, 5)),
        ],
    )
    def test_matches_scalar_over_full_rows(self, params, shape):
        d = SenderDist(*shape, 3)
        grid = np.linspace(0.0, 3.0, 61)
        ez = np.array([d.trunc_mean(z) for z in grid[1:-1]])
        for i in (0, 17, 45):
            path = SeparatingPath(params, grid[i], 3.0)
            z_h = grid[i + 1:-1]  # row 0 starts at z_h = grid[1]
            got = pooled_action_many(params, path.sigma_many(z_h), z_h, ez[i:])
            want = np.array([pooled_action(params, d, path, z) for z in z_h])
            assert np.all(np.abs(got - want) <= 2.0 * (1e-14 + 1e-12 * want))

    def test_empty_row(self, baseline):
        empty = np.array([])
        assert pooled_action_many(baseline, empty, empty, empty).size == 0


def test_thin_tail_raises_typed_error(monkeypatch):
    # With no tail beyond z_h (E[z | z >= z_h] = z_h) the top residual falls
    # from zero at sigma(z_h), since the separating path has c_s > v_s there:
    # no pooled action exists.
    p = ModelParams(a=0.58, q=1.23, k=0.94)
    d = SenderDist(1, 1, 2.5)
    path = SeparatingPath(p, 0.69, d.zbar)
    z_h = np.linspace(0.8, 2.4, 9)
    with pytest.raises(DegenerateTailError):
        pooled_action_many(p, path.sigma_many(z_h), z_h, z_h)
    monkeypatch.setattr(SenderDist, "trunc_mean", lambda self, c: c)
    for z in z_h:
        with pytest.raises(DegenerateTailError):
            pooled_action(p, d, path, float(z))


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 0.5, 3), (5, 3, 3)])
@pytest.mark.parametrize("z_l", [0.4, 1.0])
def test_anchored_maps_make_no_quadrature_call(baseline, shape, z_l, monkeypatch):
    # The wage has a closed form on paths anchored at z_l > 0 too, so neither
    # direction of the top system integrates.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    for module in (quadrature, separating):
        if hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", no_quadrature)
    d = SenderDist(*shape)
    path = SeparatingPath(baseline, z_l, d.zbar)
    _, t_h = solve_top(baseline, d, path, 2.2)
    assert resolve(baseline, d, z_l, 2.2).t_h == t_h
    assert invert_cap(baseline, d, path, t_h).z_h == pytest.approx(2.2, abs=1e-8)
    top = path.top_wage()
    assert resolve(baseline, d, z_l, d.zbar).t_h == top
    assert invert_cap(baseline, d, path, top).eq_class == SEPARATING


# A recorded solve-interval input (z_l = 0) whose root lies above
# quantile(1 - 1e-10), in the band the cap search once stopped short of.
RECORDED_THIN_CAP = (
    ModelParams(a=0.5196802146419977, q=1.3947719071358389, k=1.7791125682177296),
    SenderDist(3, 5, 2.009293251585505),
    15.920704826805233,
)


def test_cap_in_thin_tail_round_trips():
    p, d, cap = RECORDED_THIN_CAP
    path = SeparatingPath(p, invert_floor(p, d, 0.0), d.zbar)
    rec = invert_cap(p, d, path, cap)
    assert rec.eq_class == STRICTLY_WELL_BEHAVED
    assert rec.z_h == pytest.approx(2.0059355, abs=1e-7)
    assert abs(solve_top(p, d, path, rec.z_h)[1] - cap) <= 1e-6 * cap


def test_cap_above_the_search_limit_is_separating():
    # A cap between t_h(zbar - EFFECTIVE_ZERO) and the top wage has its root
    # within EFFECTIVE_ZERO of zbar.
    p, d, _ = RECORDED_THIN_CAP
    path = SeparatingPath(p, 0.0, d.zbar)
    _, t_limit = solve_top(p, d, path, d.zbar - EFFECTIVE_ZERO)
    rec = invert_cap(p, d, path, 0.5 * (t_limit + path.top_wage()))
    assert rec.eq_class == SEPARATING
    assert rec.z_h == d.zbar
