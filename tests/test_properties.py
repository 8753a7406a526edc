"""Seeded property tests of optimize, the forward and the inverse map over the
admissible box."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delegate_opt import (
    ModelParams,
    SenderDist,
    SeparatingPath,
    invert_cap,
    optimize,
    pi_s,
    solve_bottom,
    solve_top,
)
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.thresholds import STRICTLY_WELL_BEHAVED, _pooled_action_rhs, classify, resolve

from conftest import AGREEMENT_SHAPES, edge_pass


def _floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


BOX = dict(
    A=_floats(0.5, 2.0),
    beta_cost=_floats(0.2, 1.0),
    a=_floats(0.0, 0.9),
    k=_floats(0.5, 2.0),
    q=_floats(0.0, 2.0),
    alpha=_floats(0.3, 8.0),
    beta_shape=_floats(0.3, 8.0),
    zbar=_floats(1.0, 4.0),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(**BOX)
def test_optimize_meets_invariants(
    A, beta_cost, a, k, q, alpha, beta_shape, zbar
):
    p = ModelParams(A=A, beta_cost=beta_cost, a=a, k=k, q=q)
    d = SenderDist(alpha, beta_shape, zbar)
    out = optimize(p, d)
    rec = out.thresholds
    assert rec.z_l <= rec.z_h
    assert rec.t_l <= rec.t_h
    assert out.surplus.total >= pi_s(p, d) - 1e-8
    assert out.diagnostics["certificate"] >= -1e-8


@pytest.mark.parametrize("a", [0.5, 0.99, 0.999, 0.9999])
def test_slopes_whose_differences_underflow_solve(a):
    # q = 20 on a (50, 50) Beta: next to zbar the slopes are about -3e-275
    # and -1e-290, so the inverse quadratic step's products of slope
    # differences underflow to 0; the search falls back to regula falsi or
    # bisection, with no warning, and the result meets the invariants above.
    p, d = ModelParams(a=a, q=20.0), SenderDist(50, 50, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = optimize(p, d)
    rec = out.thresholds
    assert rec.z_l <= rec.z_h
    assert rec.t_l <= rec.t_h
    assert out.surplus.total >= pi_s(p, d) - 1e-8
    assert out.diagnostics["certificate"] >= -1e-8


@settings(derandomize=True, deadline=None, max_examples=300)
@given(**BOX, entry=_floats(0.0, 0.6), u=st.floats(0.0, 1.0, exclude_max=True))
def test_invert_cap_round_trips(
    A, beta_cost, a, k, q, alpha, beta_shape, zbar, entry, u
):
    # Entry at z_l = 0 or inside the support, and a cap anywhere in
    # [t_l, top wage): invert_cap never raises, and an interior z_h gives
    # the cap back through solve_top.
    p = ModelParams(A=A, beta_cost=beta_cost, a=a, k=k, q=q)
    d = SenderDist(alpha, beta_shape, zbar)
    z_l = 0.0 if entry < 0.05 else entry * zbar
    path = SeparatingPath(p, z_l, zbar)
    t_l = solve_bottom(p, d, z_l)[1]
    cap = t_l + u * (path.top_wage() - t_l)
    rec = invert_cap(p, d, path, cap)
    if rec.eq_class == STRICTLY_WELL_BEHAVED:
        assert abs(solve_top(p, d, path, rec.z_h)[1] - cap) <= 1e-6 * cap


@settings(derandomize=True, deadline=None, max_examples=200)
@given(**BOX, entry=_floats(0.0, 0.6), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_resolve_solves_the_top_system(
    A, beta_cost, a, k, q, alpha, beta_shape, zbar, entry, u
):
    # Any z_h inside (z_l + EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO) resolves
    # to a pooled action that is the larger root of the top indifference
    # equation, to twice pooled_action's root tolerance, and a cap below the
    # top wage.
    p = ModelParams(A=A, beta_cost=beta_cost, a=a, k=k, q=q)
    d = SenderDist(alpha, beta_shape, zbar)
    z_l = 0.0 if entry < 0.05 else entry * zbar
    lo, hi = z_l + EFFECTIVE_ZERO, zbar - EFFECTIVE_ZERO
    z_h = lo + u * (hi - lo)
    # Rounding can put an end point a hair outside the band.
    assume(classify(z_l, z_h, zbar) == STRICTLY_WELL_BEHAVED)
    rec = resolve(p, d, z_l, z_h)
    assert rec.eq_class == STRICTLY_WELL_BEHAVED
    path = SeparatingPath(p, z_l, zbar)
    sig, ez, s_h = path.sigma_tilde(z_h), d.trunc_mean(z_h), rec.s_h
    separate = A * k * sig**a * z_h ** (1.0 + q) - beta_cost * sig**2 / z_h

    def excess(s: float) -> float:
        return A * k * s**a * z_h**q * ez - beta_cost * s**2 / z_h - separate

    tol = 2.0 * (1e-14 + 1e-12 * s_h)
    assert s_h > sig
    assert excess(max(sig, s_h - tol)) >= 0.0 >= excess(s_h + tol)
    assert rec.t_h < path.top_wage()
    assert abs(path.mu_tilde(sig) - z_h) <= 1e-12 * zbar


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_kernels_round_alike_in_any_batch():
    # An element of the pooled-action kernel, of sigma_many on both anchors
    # and of every line_pass field depends on its own inputs alone: it equals
    # its one-element call bit for bit, and the kernels' scalar calls too.
    rng = np.random.default_rng(21)
    for shape in AGREEMENT_SHAPES:
        d = SenderDist(*shape, 3.0)
        for a in (0.0, 0.3, 0.5, 0.9):
            for q in (1.0, 1.5, 2.0):
                p = ModelParams(a=a, q=q)
                z = np.sort(rng.uniform(EFFECTIVE_ZERO, 3.0, 6))
                edge = SeparatingPath(p, 0.0, d.zbar)
                inner = SeparatingPath(p, float(rng.uniform(0.05, 1.0)), d.zbar)
                z_in = rng.uniform(inner.z_l, d.zbar, 6)
                sig = edge.sigma_many(z)
                ez = d.tail_moments(z, q)[0]
                kernel = _pooled_action_rhs(p, sig, z, ez)
                for path, zs in ((edge, z), (inner, z_in)):
                    many = path.sigma_many(zs)
                    for i, zi in enumerate(zs.tolist()):
                        want = _bits(many[i])
                        assert _bits(path.sigma_many(zs[i:i + 1])) == want, (p, d, path, zi)
                        assert _bits(path.sigma_tilde(zi)) == want, (p, d, path, zi)
                for i in range(z.size):
                    one = _pooled_action_rhs(p, sig[i:i + 1], z[i:i + 1], ez[i:i + 1])
                    scalar = _pooled_action_rhs(p, *(float(v[i]) for v in (sig, z, ez)))
                    for got in (one, scalar):
                        assert list(map(_bits, got)) == [_bits(k[i]) for k in kernel], (p, d, i)
                points = np.append(z, [EFFECTIVE_ZERO, 3.0 - 1e-3, 3.0 - EFFECTIVE_ZERO])
                full = edge_pass(p, d, points)
                for i in range(points.size):
                    single = edge_pass(p, d, points[i:i + 1])
                    for field, got, want in zip(full._fields, single, full):
                        got, want = np.asarray(got), np.asarray(want)
                        assert _bits(got[..., 0]) == _bits(want[..., i]), (p, d, i, field)
