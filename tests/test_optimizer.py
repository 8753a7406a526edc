from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from delegate_opt import ModelParams, SenderDist, SeparatingPath, optimize, pi_s, pi_w
from delegate_opt import distributions, quadrature, separating
from delegate_opt import surplus as sp
from delegate_opt.cli import main
from delegate_opt.errors import ConfigError, ConvergenceError
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.harness import load_golden, run_config
from delegate_opt.optimizer import OptimizerOptions, _Scan
from delegate_opt.surplus import sep_part
from delegate_opt.thresholds import POOLING, STRICTLY_WELL_BEHAVED

from conftest import BASELINE_SHAPES, brute_force_triangle, sep_cells


class TestBaselineOptimum:
    def test_design1_uniform(self, baseline, uniform3):
        out = optimize(baseline, uniform3)
        rec = out.thresholds
        assert rec.eq_class == STRICTLY_WELL_BEHAVED
        assert rec.z_l == 0.0 and rec.t_l == 0.0
        assert rec.z_h == pytest.approx(1.75, abs=0.02)
        assert out.percentile_zh == pytest.approx(0.585, abs=0.01)
        assert out.surplus.total >= pi_s(baseline, uniform3)

    def test_interval_round_trips_thresholds(self, baseline, uniform3):
        from delegate_opt import SeparatingPath, invert_cap

        out = optimize(baseline, uniform3)
        path = SeparatingPath(baseline, out.thresholds.z_l, 3.0)
        rec = invert_cap(baseline, uniform3, path, out.interval[1])
        assert rec.z_h == pytest.approx(out.thresholds.z_h, abs=1e-6)

    def test_pure_signaling_pooling(self):
        out = optimize(ModelParams(a=0.0), SenderDist(5, 5, 3))
        rec = out.thresholds
        assert rec.eq_class == POOLING
        assert rec.z_h == 0.0 and rec.t_h == 0.0 and rec.s_h == 0.0
        assert out.interval == (0.0, 0.0)

    def test_scale_invariance_in_k(self, uniform3):
        z_hs = [
            optimize(ModelParams(k=k), uniform3).thresholds.z_h
            for k in (1.0, 2.0, 3.0)
        ]
        assert max(z_hs) - min(z_hs) <= 1e-5


class TestCertificates:
    @pytest.mark.parametrize(
        "params, shape",
        [
            (ModelParams(), (1, 1, 3)),
            (ModelParams(), (3, 5, 3)),
            (ModelParams(a=0.0, q=1.0), (1, 1, 3)),
            (ModelParams(a=0.6, q=1.5), (5, 3, 3)),
            # Two configurations that refining only the grid best's branch
            # (edge or diagonal) leaves short of the triangle.
            (
                ModelParams(a=0.17866903319340557, q=0.7262539011007032,
                            k=0.9485150689178663),
                (7.600555272863273, 4.714661925605631, 2.038184317337435),
            ),
            (
                ModelParams(a=0.055678876340736726, q=0.8230336469959498,
                            k=2.4100752210961716),
                (5.920917217315901, 1.171678134444217, 3.4456653648753153),
            ),
        ],
    )
    def test_refined_beats_brute_force_grid(self, params, shape):
        d = SenderDist(*shape)
        out = optimize(params, d)
        brute = brute_force_triangle(params, d, 201)
        assert out.surplus.total >= np.nanmax(brute) - 1e-8

    def test_grid_certificate_recorded(self, baseline, uniform3):
        out = optimize(baseline, uniform3)
        assert out.diagnostics["certificate"] >= -1e-8
        # The z_l = 0 edge and the pooling diagonal share the (0, 0) cell.
        assert out.diagnostics["n_grid_evals"] == 2 * 61 - 1

    def test_certificate_failure_is_numerical(self, baseline, uniform3, monkeypatch):
        # A refined value below the grid value is a numerical failure (exit 2).
        exact = sp.pi_w

        def low(*args, **kwargs):
            b = exact(*args, **kwargs)
            return dataclasses.replace(b, total=b.total - 1e-3)

        monkeypatch.setattr(sp, "pi_w", low)
        with pytest.raises(ConvergenceError):
            optimize(baseline, uniform3, OptimizerOptions(grid=13))
        assert main(["optimize"]) == 2


class TestGridBatch:
    """The tests' batched row engine (``sep_cells``) against ``sep_part``."""

    @staticmethod
    def row(p, d, i, n=61):
        """Batched and per-cell separating parts of grid row i."""
        grid = np.linspace(0.0, d.zbar, n)
        path = SeparatingPath(p, grid[i], d.zbar)
        cells, fallback = sep_cells(p, d, path, grid[i:])
        want = [sep_part(p, d, path, grid[j - 1], grid[j]) for j in range(i + 1, n)]
        return cells, np.array(want), fallback

    @pytest.mark.parametrize("shape", BASELINE_SHAPES)
    def test_rows_match_per_cell_sep_part(self, baseline, shape):
        d = SenderDist(*shape, 3)
        for i in (12, 40, 59):
            cells, want, _ = self.row(baseline, d, i)
            np.testing.assert_allclose(cells, want, rtol=1e-12, atol=0.0)
        # Row 0 against the closed form over (0, z_j]. Its tiny first cells
        # differ by ~1e-17 absolute, too much for rtol 1e-12; their sums do not.
        grid = np.linspace(0.0, d.zbar, 61)
        path = SeparatingPath(baseline, 0.0, d.zbar)
        cells, _ = sep_cells(baseline, d, path, grid)
        want = sep_part(baseline, d, path, 0.0, grid[1:])
        np.testing.assert_allclose(np.cumsum(cells), want, rtol=1e-12, atol=0.0)

    def test_endpoint_singular_cell_falls_back(self, baseline):
        # beta_shape < 1: the last cell of every row has a density that grows
        # like (zbar - z)^-0.5 and misses the G20/G10 target.
        d = SenderDist(2, 0.5, 3)
        for i in (1, 30):
            cells, want, fallback = self.row(baseline, d, i)
            assert fallback >= 1
            np.testing.assert_allclose(cells, want, rtol=1e-12, atol=0.0)


class TestDeterminism:
    def test_bitwise_identical_outcomes(self, baseline, uniform3):
        a = optimize(baseline, uniform3)
        b = optimize(baseline, uniform3)
        assert a.thresholds == b.thresholds
        assert a.surplus == b.surplus
        assert a.interval == b.interval
        assert a.percentile_zh == b.percentile_zh

    def test_percentile_invariant_across_support(self, baseline):
        pcts = [
            optimize(baseline, SenderDist(1, 1, zbar)).percentile_zh
            for zbar in (1.0, 2.0, 3.0)
        ]
        assert max(pcts) - min(pcts) <= 0.01


class TestOptions:
    def test_grid_resolution_guard(self):
        with pytest.raises(ConfigError):
            OptimizerOptions(grid=2)
        for refine in ("downhill", "golden", "nelder-mead"):
            with pytest.raises(ConfigError):
                OptimizerOptions(refine=refine)

    def test_no_refine_stays_on_grid(self, baseline, uniform3):
        out = optimize(baseline, uniform3, OptimizerOptions(refine="none"))
        assert out.diagnostics["refine_method"] == "none"
        assert out.thresholds.z_h == pytest.approx(1.75, abs=0.05)

    def test_coarse_grid_still_lands_close(self, baseline, uniform3):
        out = optimize(baseline, uniform3, OptimizerOptions(grid=13))
        assert out.thresholds.z_h == pytest.approx(1.755, abs=0.05)


def test_interior_grid_optimum_refines_on_edge():
    # The full triangle's grid optimum of this configuration is interior
    # (z_l > 0). The edge search must reach at least the value a 2-D simplex
    # search reaches at z_l = 9e-5, and the triangle's best cell.
    p = ModelParams(a=0.1559489380294215, q=0.9757566420397943, k=1.0515969801722909)
    d = SenderDist(6.304873828871028, 3.3441746404432293, 1.4633510143385504)
    triangle = brute_force_triangle(p, d, 61)
    i, j = np.unravel_index(np.nanargmax(triangle), triangle.shape)
    assert 0 < i < j
    out = optimize(p, d)
    assert out.diagnostics["refine_method"] == "golden-edge"
    assert out.thresholds.z_l == 0.0
    assert out.surplus.total >= 0.7491472211633147
    assert out.surplus.total >= np.nanmax(triangle) - 1e-8


def test_edge_beats_diagonal_grid_best():
    # The best scanned cell is on the pooling diagonal, but refining the edge
    # finds more: both branches are refined, not only the grid best's.
    p = ModelParams(a=0.117615821226549, q=0.16252462223198094, k=2.7659809135006426)
    d = SenderDist(2.6593614598928235, 6.712516187015921, 1.8077328990201713)
    out = optimize(p, d)
    best = out.diagnostics["grid_best"]
    assert best["z_l"] == best["z_h"] > 0.0
    assert out.diagnostics["refine_method"] == "golden-edge"
    assert out.thresholds.z_l == 0.0
    assert out.surplus.total >= 0.97962


def _scan_is_finite(p: ModelParams, d: SenderDist) -> bool:
    scan = _Scan(p, d, OptimizerOptions().grid)
    return bool(np.isfinite(scan.edge).all() and np.isfinite(scan.diag).all())


def test_thin_tail_columns_solve():
    # Above z = 3.66541 the tail mass is below 1e-12; the top grid columns
    # still have an exact conditional mean and a pooling value.
    p = ModelParams(a=0.31987239932116085, q=1.0381969729919802, k=2.4131184581963065)
    d = SenderDist(1.4631795411914794, 7.487329320767199, 3.727537941971651)
    assert _scan_is_finite(p, d)
    out = optimize(p, d)
    assert out.thresholds.z_l <= out.thresholds.z_h
    assert out.surplus.total >= pi_s(p, d) - 1e-8


def test_thin_tail_inside_edge_bracket_solves():
    # The best edge column borders the thin tail (mass above z = 0.9897 below
    # 1e-12), so the refinement's bracket reaches into it.
    p = ModelParams(A=0.5, beta_cost=0.2, a=0.6736, k=0.5, q=1.9786)
    d = SenderDist(2.2615, 6.6962, 1.0)
    assert _scan_is_finite(p, d)
    out = optimize(p, d)
    assert out.surplus.total >= pi_s(p, d) - 1e-8
    assert out.diagnostics["certificate"] >= -1e-8


@pytest.mark.parametrize("shape", BASELINE_SHAPES)
def test_refined_edge_optimum_matches_reference(baseline, shape):
    # Against a bounded scalar search on pi_w over the same bracket: the two
    # grid cells around the best scanned edge column.
    d = SenderDist(*shape, 3)
    opts = OptimizerOptions()
    grid = np.linspace(0.0, d.zbar, opts.grid)
    edge = np.array([pi_w(baseline, d, 0.0, z).total for z in grid[1:]])
    j = int(np.flatnonzero(edge >= edge.max() - 1e-9)[-1]) + 1
    ref = minimize_scalar(
        lambda z: -pi_w(baseline, d, 0.0, z).total,
        bounds=(max(grid[j - 1], EFFECTIVE_ZERO), grid[min(j + 1, opts.grid - 1)]),
        method="bounded", options={"xatol": 1e-10},
    )
    out = optimize(baseline, d, opts)
    assert out.diagnostics["refine_method"] == "golden-edge"
    assert abs(out.thresholds.z_h - ref.x) <= opts.tol


def test_refinement_call_budget(monkeypatch):
    # Batched refinement: a few array objective calls per line, counted (not
    # timed) over all 311 design rows. The first call on each line is the scan.
    calls = Counter()
    for name in ("pi_w_edge", "pi_p_many"):
        def counted(*args, inner=getattr(sp, name), name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(sp, name, counted)
    for g in load_golden():
        calls.clear()
        d = SenderDist(g.alpha, g.beta_shape, g.zbar)
        optimize(ModelParams(a=g.a, k=g.k, q=g.q), d)
        assert 2 <= calls["pi_w_edge"] <= 7, g.key()
        assert 2 <= calls["pi_p_many"] <= 7, g.key()


def test_tiny_signal_productivity_solves():
    # For a tiny positive a the pooled value s*^a is about 1 for any s* > 0
    # but 0^a = 0 at the z = 0 corner. Both refinement brackets stop at
    # EFFECTIVE_ZERO, so neither walks into the corner that resolve snaps to.
    p = ModelParams(A=0.7597, beta_cost=0.2986, a=1.16e-281, k=1.607, q=0.2044)
    d = SenderDist(1.2926, 3.2237, 2.9996)
    out = optimize(p, d)
    assert out.thresholds.eq_class == STRICTLY_WELL_BEHAVED
    assert out.surplus.total == pytest.approx(0.968225, abs=1e-6)
    assert out.diagnostics["certificate"] >= -1e-8


@pytest.mark.parametrize(
    "params, shape",
    [(ModelParams(), (*shape, 3)) for shape in BASELINE_SHAPES]
    + [(ModelParams(), (*shape, 3)) for shape in ((2, 0.5), (0.7, 0.7), (0.5, 2))]
    + [(ModelParams(a=0.74), (7.03, 0.34, 3.37))],
)
def test_optimizer_makes_no_quadrature_call(params, shape, monkeypatch):
    # The edge's separating part and every tail moment are closed forms, so
    # neither optimize nor a design row reaches adaptive quadrature.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    for module in (quadrature, sp, separating, distributions):
        if hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", no_quadrature)
    d = SenderDist(*shape)
    out = optimize(params, d)
    assert out.surplus.total >= pi_s(params, d) - 1e-8
    row = run_config(params, d, design=1)
    assert row.pi_w == out.surplus.total
