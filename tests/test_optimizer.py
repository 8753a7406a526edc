from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from delegate_opt import ModelParams, SenderDist, SeparatingPath, optimize, pi_s
from delegate_opt import surplus as sp
from delegate_opt.cli import main
from delegate_opt.errors import ConfigError, ConvergenceError
from delegate_opt.optimizer import OptimizerOptions
from delegate_opt.surplus import sep_cells, sep_part
from delegate_opt.thresholds import POOLING, STRICTLY_WELL_BEHAVED

from conftest import BASELINE_SHAPES, brute_force_triangle


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
    @staticmethod
    def row(p, d, i, n=61):
        """Batched and per-cell separating parts of grid row i."""
        grid = np.linspace(0.0, d.zbar, n)
        path = SeparatingPath(p, grid[i], d.zbar)
        sig_knots = np.concatenate(([path.s_l], path.sigma_many(grid[i + 1:])))
        cells, fallback = sep_cells(p, d, path, grid[i:], sig_knots)
        want = [sep_part(p, d, path, grid[j - 1], grid[j]) for j in range(i + 1, n)]
        return cells, np.array(want), fallback

    @pytest.mark.parametrize("shape", BASELINE_SHAPES)
    def test_rows_match_per_cell_sep_part(self, baseline, shape):
        d = SenderDist(*shape, 3)
        for i in (0, 12, 40, 59):
            cells, want, _ = self.row(baseline, d, i)
            np.testing.assert_allclose(cells, want, rtol=1e-12, atol=0.0)

    def test_endpoint_singular_cell_falls_back(self, baseline):
        d = SenderDist(0.5, 2, 3)
        cells, want, fallback = self.row(baseline, d, 0)
        assert fallback >= 1
        np.testing.assert_allclose(cells, want, rtol=1e-12, atol=0.0)
        out = optimize(baseline, d)
        assert out.diagnostics["grid_fallback_cells"] >= 1

    def test_smooth_shapes_need_no_fallback(self, baseline, uniform3):
        out = optimize(baseline, uniform3)
        assert out.diagnostics["grid_fallback_cells"] == 0


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


def test_thin_tail_columns_are_skipped():
    # Above z = 3.66541 the tail mass is below 1e-12, so the top grid columns
    # have no conditional mean; they hold no pooling value instead of
    # aborting the optimization.
    p = ModelParams(a=0.31987239932116085, q=1.0381969729919802, k=2.4131184581963065)
    d = SenderDist(1.4631795411914794, 7.487329320767199, 3.727537941971651)
    out = optimize(p, d)
    assert out.thresholds.z_l <= out.thresholds.z_h
    assert out.surplus.total >= pi_s(p, d) - 1e-8
