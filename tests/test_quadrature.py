from __future__ import annotations

import math

import numpy as np
import pytest

from delegate_opt.errors import ConvergenceError
from delegate_opt.quadrature import integrate


def test_polynomial_exact():
    assert integrate(lambda x: 5 * x**4, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_empty_and_reversed_interval():
    assert integrate(np.sin, 2.0, 2.0) == 0.0
    fwd = integrate(np.sin, 0.0, 2.0)
    assert integrate(np.sin, 2.0, 0.0) == pytest.approx(-fwd, abs=1e-14)


@pytest.mark.parametrize(
    "f, a, b, want",
    [
        (lambda x: np.sin(20.0 * x), 0.0, 3.0, (1.0 - math.cos(60.0)) / 20.0),
        (
            lambda x: np.exp(-50.0 * (x - 0.3) ** 2), 0.0, 1.0,
            math.sqrt(math.pi / 50.0) / 2.0
            * (math.erf(0.7 * math.sqrt(50.0)) + math.erf(0.3 * math.sqrt(50.0))),
        ),
        (
            lambda x: 1.0 / (1e-3 + x**2), -1.0, 1.0,
            2.0 * math.atan(1.0 / math.sqrt(1e-3)) / math.sqrt(1e-3),
        ),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 2.0, 2.0 / 3.0 * 2.0**1.5),
    ],
    ids=["sine", "gaussian", "peak", "sqrt"],
)
def test_matches_closed_form(f, a, b, want):
    assert integrate(f, a, b) == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_integrable_endpoint_singularity():
    got = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-8)


def test_depth_exhaustion_raises():
    # A divergent integrand exhausts QUADPACK's subdivisions instead of
    # returning its last estimate.
    with pytest.raises(ConvergenceError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)
