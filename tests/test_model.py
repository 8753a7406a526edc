from __future__ import annotations

import numpy as np
import pytest

from delegate_opt import ModelParams, model
from delegate_opt.errors import ConfigError, DomainError

from conftest import c_s, c_z, random_admissible, v_s, v_z


def test_surplus_examples():
    assert model.surplus_v(ModelParams(A=1, a=0.5), 2.0, 4.0, 1.5) == pytest.approx(6.0)
    assert model.surplus_v(ModelParams(a=0.0), 2.0, 0.0, 1.5) == pytest.approx(3.0)
    assert model.surplus_v(ModelParams(), 0.0, 1.0, 2.0) == 0.0


def test_cost_examples():
    p = ModelParams()
    assert model.cost_c(p, 4.73, 1.75) == pytest.approx(0.5 * 4.73**2 / 1.75)
    assert model.cost_c(p, 0.0, 0.3) == 0.0
    assert model.cost_c(p, 0.0, 0.0) == 0.0
    assert model.cost_c(p, 1.0, 1.0) == pytest.approx(0.5)


def test_cost_singularity():
    with pytest.raises(DomainError):
        model.cost_c(ModelParams(), 1.0, 1e-9)


def test_match_examples():
    assert model.match_n(ModelParams(k=1, q=1), 1.75) == pytest.approx(1.75)
    assert model.match_n(ModelParams(k=1, q=1.1), 3.0) == pytest.approx(3.348, abs=5e-4)
    assert model.match_n(ModelParams(k=2, q=0.0), 0.7) == pytest.approx(2.0)
    assert model.match_n(ModelParams(k=2, q=0.0), 0.0) == pytest.approx(2.0)


def test_param_validation():
    with pytest.raises(ConfigError):
        ModelParams(a=1.0)
    with pytest.raises(ConfigError):
        ModelParams(q=-0.1)
    with pytest.raises(ConfigError):
        ModelParams(beta_cost=0.0)


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_partials_match_finite_differences(rng):
    for _ in range(10):
        p = random_admissible(rng)
        x, s, z = rng.uniform(0.5, 3.0, size=3)
        h = 1e-5
        checks = [
            (v_s(p, x, s, z), _central(lambda t: model.surplus_v(p, x, t, z), s, h)),
            (v_z(p, x, s, z), _central(lambda t: model.surplus_v(p, x, s, t), z, h)),
            (c_s(p, s, z), _central(lambda t: model.cost_c(p, t, z), s, h)),
            (c_z(p, s, z), _central(lambda t: model.cost_c(p, s, t), z, h)),
        ]
        for analytic, numeric in checks:
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-8)


def test_monotonicity(rng):
    for _ in range(10):
        p = random_admissible(rng)
        x, s, z = rng.uniform(0.5, 3.0, size=3)
        eps = 1e-6
        assert model.surplus_v(p, x + eps, s, z) >= model.surplus_v(p, x, s, z)
        assert model.surplus_v(p, x, s + eps, z) >= model.surplus_v(p, x, s, z)
        assert model.surplus_v(p, x, s, z + eps) >= model.surplus_v(p, x, s, z)
        assert model.cost_c(p, s + eps, z) > model.cost_c(p, s, z)
        assert model.cost_c(p, s, z + eps) < model.cost_c(p, s, z)


@pytest.mark.parametrize("field", ["A", "beta_cost", "k", "q"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_params_rejected(field, value):
    # Before the check, inf A or k reached a ZeroDivisionError and NaN a
    # ConvergenceError deep inside optimize.
    with pytest.raises(ConfigError, match="finite"):
        ModelParams(**{field: value})


_NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda p: model.match_n(p, _NAN),
        lambda p: model.match_n(p, np.array([1.0, _NAN])),
        lambda p: model.cost_c(p, 1.0, _NAN),
        lambda p: model.cost_c(p, 0.0, _NAN),
        lambda p: model.cost_c(p, _NAN, 1.0),
        lambda p: model.surplus_v(p, 1.0, _NAN, 1.0),
        lambda p: model.surplus_v(p, _NAN, 1.0, 1.0),
        lambda p: model.surplus_v(p, 1.0, 1.0, _NAN),
        lambda p: model.surplus_v(p, np.array([1.0, _NAN]), 1.0, 1.0),
    ],
    ids=["match-nan", "match-array-nan", "cost-z-nan", "cost-zero-s-z-nan",
         "cost-s-nan", "surplus-s-nan", "surplus-x-nan", "surplus-z-nan",
         "surplus-array-x-nan"],
)
def test_nan_type_or_action_is_domain_error(call):
    # Each returned NaN: a bound check written as x < lo lets NaN pass.
    with pytest.raises(DomainError):
        call(ModelParams())


@pytest.mark.parametrize(
    "s, z",
    [(-1.0, 0.0), (-1.0, 1.0), (np.array([0.5, -1e-300]), 1.0), (-0.5, np.array([1.0, 0.0]))],
    ids=["at-zero-type", "inside", "array-action", "array-type"],
)
def test_negative_action_is_domain_error(s, z):
    # cost_c(p, -1.0, 0.0) returned beta s^2 / EFFECTIVE_ZERO = 500000.0:
    # the singularity check exempted every s <= 0, not only s = 0.
    with pytest.raises(DomainError):
        model.cost_c(ModelParams(), s, z)
