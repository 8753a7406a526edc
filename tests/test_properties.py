"""Seeded property test of optimize over the admissible parameter box."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from delegate_opt import ModelParams, SenderDist, optimize, pi_s


def _floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    A=_floats(0.5, 2.0),
    beta_cost=_floats(0.2, 1.0),
    a=_floats(0.0, 0.9),
    k=_floats(0.5, 2.0),
    q=_floats(0.0, 2.0),
    alpha=_floats(0.3, 8.0),
    beta_shape=_floats(0.3, 8.0),
    zbar=_floats(1.0, 4.0),
)
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
