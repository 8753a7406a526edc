"""Seeded property tests of optimize and the inverse map over the admissible box."""

from __future__ import annotations

from hypothesis import given, settings
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
from delegate_opt.thresholds import STRICTLY_WELL_BEHAVED


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
