from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from delegate_opt import ModelParams, SenderDist, SeparatingPath, optimize, pi_p, pi_s, pi_w
from delegate_opt import distributions, optimizer, quadrature, separating
from delegate_opt import surplus as sp
from delegate_opt.cli import main
from delegate_opt.errors import ConvergenceError, DomainError
from delegate_opt.distributions import EFFECTIVE_ZERO
from delegate_opt.harness import load_golden, run_config, run_design
from delegate_opt.optimizer import (
    _GRID, _TOL, _hermite, _iqi, _root_search, _scan_side,
)
from delegate_opt.surplus import sep_part
from delegate_opt import thresholds
from delegate_opt.thresholds import POOLING, STRICTLY_WELL_BEHAVED, resolve

from conftest import (
    AGREEMENT_SHAPES, BASELINE_SHAPES, brute_force_triangle, edge_pass, random_admissible, sep_cells,
)


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
        # The diagonal's slope is negative at EFFECTIVE_ZERO: a corner
        # optimum, where the exact corner cell beats the line's end.
        assert out.diagnostics["active_bound"] == "corner"

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
        assert out.diagnostics["active_bound"] is None
        assert abs(out.diagnostics["foc_residual"]) <= 1e-5
        # The z_l = 0 edge and the pooling diagonal share the (0, 0) cell.
        assert out.diagnostics["n_grid_evals"] == 2 * 61 - 1

    def test_certificate_failure_is_numerical(self, baseline, uniform3, monkeypatch):
        # A refined value below the grid value is a numerical failure (exit 2).
        exact = sp.surplus_from

        def low(*args, **kwargs):
            b = exact(*args, **kwargs)
            return dataclasses.replace(b, total=b.total - 1e-3)

        monkeypatch.setattr(sp, "surplus_from", low)
        with pytest.raises(ConvergenceError):
            optimize(baseline, uniform3)
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
    assert out.diagnostics["refine_method"] == "edge"
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
    assert out.diagnostics["refine_method"] == "edge"
    assert out.thresholds.z_l == 0.0
    assert out.surplus.total >= 0.97962


def _scan_is_finite(p: ModelParams, d: SenderDist) -> bool:
    scan = edge_pass(p, d, _scan_side(d, p.q)[1])
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
    grid = np.linspace(0.0, d.zbar, _GRID)
    edge = np.array([pi_w(baseline, d, 0.0, z).total for z in grid[1:]])
    j = int(np.flatnonzero(edge >= edge.max() - 1e-9)[-1]) + 1
    ref = minimize_scalar(
        lambda z: -pi_w(baseline, d, 0.0, z).total,
        bounds=(max(grid[j - 1], EFFECTIVE_ZERO), grid[min(j + 1, _GRID - 1)]),
        method="bounded", options={"xatol": 1e-10},
    )
    out = optimize(baseline, d)
    assert out.diagnostics["refine_method"] == "edge"
    assert abs(out.thresholds.z_h - ref.x) <= _TOL


def test_refinement_call_budget(monkeypatch):
    # Lockstep root search: a few line passes per design row, counted (not
    # timed) over all 311 design rows. The first pass is the scan; each later
    # one is a round of both lines' root searches, and the Hermite seed leaves
    # at most two. A pooling-corner row takes the scan alone: its searches
    # find no root in the cells the scan evaluated. The passes make the
    # row's only tail_moments calls (the returned record is priced from a
    # pass or a corner), but the scan takes its distribution side and the
    # corner's moments from the cache once an equal (d, q) has run: one call
    # per pass and one for the corner cold, one fewer than the passes warm.
    calls = Counter()
    for owner, name in ((sp, "line_pass"), (SenderDist, "tail_moments")):
        def counted(*args, inner=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    evals = []
    for g in load_golden():
        d = SenderDist(g.alpha, g.beta_shape, g.zbar)
        for warm in (False, True):
            if not warm:
                _scan_side.cache_clear()
            calls.clear()
            out = optimize(ModelParams(a=g.a, k=g.k, q=g.q), d)
            assert 1 <= calls["line_pass"] <= 3, g.key()
            assert calls["tail_moments"] == calls["line_pass"] + (-1 if warm else 1), g.key()
        evals.append(out.diagnostics["refine_evals"])
    assert len(evals) == 311
    assert np.mean(evals) <= 6.0


def _quintic(r: float):
    # f(z) = -(z - r)^2 (1 + (z - r)^2 / 4 + (z - r)^3 / 8): a quintic whose
    # slope -(z - r)(2 + (z - r)^2 + 5 (z - r)^3 / 8) has no root but r
    # within 2 of r.
    def f(z):
        u = np.asarray(z, dtype=float) - r
        return -u**2 * (1.0 + u**2 / 4.0 + u**3 / 8.0)

    def s(z):
        u = np.asarray(z, dtype=float) - r
        return -u * (2.0 + u**2 + 5.0 * u**3 / 8.0)

    return f, s


@pytest.mark.parametrize("r", [0.93, 1.0, 1.04, 1.1, 1.17])
def test_hermite_seed_is_the_root_of_a_quintics_slope(r):
    # The interpolant reproduces a quintic, so its slope's root is r itself,
    # on either side of the middle node.
    f, s = _quintic(r)
    z = np.array([0.9, 1.0, 1.1]) if r <= 1.1 else np.array([1.0, 1.1, 1.2])
    assert abs(_hermite(z, f(z), s(z)) - r) <= 1e-12


@pytest.mark.parametrize(
    "z, shift",
    [([1.0, 1.0, 1.1], 0.0), ([0.9, 1.0, 1.0], 0.0), ([EFFECTIVE_ZERO, 0.05, 0.1], 0.0),
     ([0.9, 1.0, 1.2], 0.0), ([0.9, 1.0, 1.1], np.nan)],
)
def test_hermite_seed_falls_back_on_unequal_nodes(z, shift):
    # Repeated grid ends, the clipped end, unequal spacing, and a NaN value.
    f, s = _quintic(1.03)
    z = np.array(z)
    assert np.isnan(_hermite(z, f(z) + shift, s(z)))


def test_root_search_seeds_from_the_slopes_on_unequal_nodes():
    # Without the Hermite seed the first v is _iqi's, inside the bracket.
    f, s = _quintic(1.03)
    z = np.array([0.9, 1.0, 1.2])
    v = _iqi(z, s(z))
    assert 1.0 < v < 1.2
    assert next(_root_search(z, f(z), s(z), 1e-6))[1] == pytest.approx(v, abs=1e-15)


@pytest.mark.parametrize("first", [True, False])
def test_root_search_from_a_grid_end(first):
    # The best cell at index 0 or n - 1: the nodes repeat, and a grid end is
    # its probe EFFECTIVE_ZERO inside, with the probe's slope. The search
    # seeds without the Hermite fit and still brackets r in one round. It
    # takes and yields lists of floats.
    f, s = _quintic(0.01 if first else 0.99)
    k = [0, 0, 1] if first else [59, 60, 60]
    z = np.clip(np.linspace(0.0, 1.0, 61)[k], EFFECTIVE_ZERO, 1.0 - EFFECTIVE_ZERO)
    assert np.isnan(_hermite(z, f(z), s(z)))
    search = _root_search(z.tolist(), f(z).tolist(), s(z).tolist(), 1e-6)
    x, rounds = next(search), 1
    assert len(x) == 3
    try:
        while True:
            x, rounds = search.send((f(x).tolist(), s(x).tolist())), rounds + 1
    except StopIteration as stop:
        z_root, _, slope, root = stop.value
    assert root and rounds == 1
    assert abs(slope) <= 1e-5 and s(z_root - 1e-6) > 0.0 > s(z_root + 1e-6)


def test_root_search_ends_when_the_bracket_narrows_below_tol():
    # A root 2e-4 below the bracket's top end: each round's stencil lies
    # below it, so no round sees the sign change, and the search ends on the
    # bracket once it is narrower than tol, at the better end (the lower on a
    # tie), within tol of the root.
    root, tol = 1.0 - 2e-4, 1e-3
    search = _root_search([0.9, 0.95, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, -1.0], tol)
    x, rounds = next(search), 1
    try:
        while True:
            assert not x[0] < root < x[-1]
            slopes = [1.0 if v < root else -1.0 for v in x]
            x, rounds = search.send(([0.0] * 3, slopes)), rounds + 1
    except StopIteration as stop:
        z, value, slope, found = stop.value
    assert rounds == 5 and found and (value, slope) == (0.0, 1.0)
    assert 0.95 < z < 1.0 and abs(z - root) <= tol


def test_root_search_bisects_in_log_z_near_effective_zero():
    # The edge slope is about 9e3 at EFFECTIVE_ZERO and the root is at
    # 0.00275; arithmetic bisection crawled toward it in 68 points.
    p = ModelParams(A=1.4611, beta_cost=0.6151, a=0.013619, k=1.8361, q=0.13371)
    d = SenderDist(1.1197, 5.5753, 3.3425)
    out = optimize(p, d)
    assert out.thresholds.z_h == pytest.approx(0.0027531, abs=1e-6)
    assert out.diagnostics["refine_evals"] <= 44


def _edge_slope(p: ModelParams, d: SenderDist, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return edge_pass(p, d, z).edge[1]


def test_design_rows_return_bracketed_slope_roots():
    # First-order condition: on every StrictlyWellBehaved design row the
    # returned z_h is within tol of a root of the edge slope, which is
    # positive tol below it and negative tol above it.
    tol = _TOL
    rows = 0
    for g in load_golden():
        p = ModelParams(a=g.a, k=g.k, q=g.q)
        d = SenderDist(g.alpha, g.beta_shape, g.zbar)
        out = optimize(p, d)
        if out.thresholds.eq_class != STRICTLY_WELL_BEHAVED:
            continue
        rows += 1
        z_h = out.thresholds.z_h
        below, above = _edge_slope(p, d, [z_h - tol, z_h + tol])
        assert below > 0.0 > above, g.key()
        assert out.diagnostics["active_bound"] is None, g.key()
        assert below > out.diagnostics["foc_residual"] > above, g.key()
    assert rows == 280


@pytest.mark.parametrize(
    "params, shape, root",
    [
        (ModelParams(q=1.7), (3, 5, 3), 2.149733),
        (ModelParams(q=1.2, a=0.9), (5, 5, 3), 2.350110),
        (ModelParams(q=1.5, a=0.3), (5, 5, 3), 1.300043),
    ],
)
def test_refined_root_beats_grid_cell_by_less_than_tie_tolerance(params, shape, root):
    # Design rows (3, 5) q = 1.7, (5, 5) q = 1.2 a = 0.9 and (5, 5) q = 1.5
    # a = 0.3: the root of the edge slope beats the grid cell z_h = 2.15,
    # 2.35 and 1.3 by only 3e-10 to 8e-10, below the 1e-9 tie tolerance,
    # but the slope at the grid cell is 6e-6 to 1.5e-5, so the root wins.
    out = optimize(params, SenderDist(*shape))
    assert out.diagnostics["refine_method"] == "edge"
    assert abs(out.thresholds.z_h - root) <= 1e-6
    assert out.surplus.total > out.diagnostics["grid_best"]["value"]


@pytest.mark.parametrize("shape", BASELINE_SHAPES)
def test_edge_optimum_meets_kkt_in_z_l(baseline, shape):
    # The reduction to the z_l = 0 edge, checked at its optimum: raising z_l
    # off its bound does not raise the surplus (KKT: dPi/dz_l <= 0). The
    # z_l > 0 surplus is QUADPACK's, hence the 1e-8 slack.
    d = SenderDist(*shape, 3)
    z_h = optimize(baseline, d).thresholds.z_h
    step = pi_w(baseline, d, 0.01, z_h).total - pi_w(baseline, d, 0.0, z_h).total
    assert step <= 1e-8


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


@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
def test_pi_s_is_the_edge_scans_last_cell(baseline, shape):
    # Full delegation is Pi_w(0, zbar), which the edge scan already holds;
    # the array closed form gives the scalar one's value bit for bit.
    d = SenderDist(*shape, 3)
    assert optimize(baseline, d).pi_s == pi_s(baseline, d)


def _box_draws(n: int, seed: int):
    """Seeded draws from the admissible box; every third has alpha < 1 and
    the others beta_shape < 1, the endpoint-singular densities."""
    rng = np.random.default_rng(seed)
    for j in range(n):
        p = ModelParams(
            A=float(rng.uniform(0.5, 2.0)), beta_cost=float(rng.uniform(0.2, 1.0)),
            a=float(rng.uniform(0.0, 0.9)), k=float(rng.uniform(0.5, 2.0)),
            q=float(rng.uniform(0.0, 2.0)),
        )
        low, other = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 8.0))
        shape = (low, other) if j % 3 == 1 else (other, low)
        yield p, SenderDist(*shape, float(rng.uniform(0.5, 4.0)))


def _rows_and_draws():
    """All design rows, then 60 seeded endpoint-singular box draws."""
    golden = [
        (ModelParams(a=g.a, k=g.k, q=g.q), SenderDist(g.alpha, g.beta_shape, g.zbar))
        for g in load_golden()
    ]
    return golden + list(_box_draws(60, 7))


def test_returned_surplus_is_surplus_of_its_record():
    # optimize prices its record with the separating part and the tail
    # moments of the line pass that evaluated the point; pi_w prices the
    # record's pair from scratch. Every field agrees exactly, on all design
    # rows and endpoint-singular box draws.
    for p, d in _rows_and_draws():
        out = optimize(p, d)
        rec = out.thresholds
        assert out.surplus == sp.pi_w(p, d, rec.z_l, rec.z_h), (p, d)


def test_record_from_the_pass_is_the_resolved_record(monkeypatch):
    # A StrictlyWellBehaved optimum's record is built from the line pass
    # that solved its top system; only a Pooling or Separating one goes
    # through resolve. The record is resolve's, bit for bit in every field:
    # the pass's array kernels and resolve's scalar calls round alike.
    resolved = []

    def counted(*args):
        resolved.append(resolve(*args))
        return resolved[-1]

    monkeypatch.setattr(thresholds, "resolve", counted)
    classes = Counter()
    for p, d in _rows_and_draws():
        resolved.clear()
        rec = optimize(p, d).thresholds
        classes[rec.eq_class] += 1
        assert rec == resolve(p, d, rec.z_l, rec.z_h), (p, d)
        assert resolved == ([] if rec.eq_class == STRICTLY_WELL_BEHAVED else [rec]), (p, d)
    assert classes[STRICTLY_WELL_BEHAVED] > 300 and classes[POOLING] >= 31


def test_cold_and_warm_scans_give_equal_outcomes():
    # The scan's distribution side comes from the cache on a repeated
    # (d, q); every field of the outcome is what a cold cache gives, on
    # all design rows and 20 endpoint-singular box draws.
    for p, d in _rows_and_draws()[:331]:  # the first 20 draws
        _scan_side.cache_clear()
        cold, warm = optimize(p, d), optimize(p, d)
        assert _scan_side.cache_info()[:2] == (1, 1), (p, d)
        for name in ("thresholds", "interval", "surplus", "pi_s", "percentile_zh", "diagnostics"):
            assert getattr(cold, name) == getattr(warm, name), (p, d, name)


def test_scan_side_is_read_only_and_keyed_by_value(baseline):
    _scan_side.cache_clear()
    optimize(baseline, SenderDist(1, 1, 3))
    optimize(baseline, SenderDist(1.0, 1.0, 3.0))
    assert _scan_side.cache_info()[:2] == (1, 1)
    grid, points, side, corner = _scan_side(SenderDist(1, 1, 3), baseline.q)
    cached = [grid, points]
    for field in side:  # every array the side holds
        cached += field if isinstance(field, tuple) else [field]
    for a in cached:
        assert isinstance(a, np.ndarray)
        with pytest.raises(ValueError):
            a[0] = a[0]
    assert all(type(m) is float for m in corner)


def test_scan_cache_holds_the_design_sweeps_distinct_keys():
    # The five design sweeps hold 311 rows but 84 distinct (d, q).
    _scan_side.cache_clear()
    rows = [row for design in range(1, 6) for row in run_design(design)]
    assert len(rows) == 311
    assert _scan_side.cache_info().misses == 84


def test_scan_cache_holds_a_cycle_of_the_box_workloads_keys():
    # The endpoint-singular box workload cycles 193 distinct (d, q) in a
    # fixed order; an LRU cache smaller than the cycle evicts each key before
    # it recurs, so the second pass must hit on every key.
    keys = [(SenderDist(0.5 + 0.01 * i, 0.7, 3), 0.5 + 0.001 * i) for i in range(193)]
    _scan_side.cache_clear()
    for key in keys * 2:
        _scan_side(*key)
    assert _scan_side.cache_info()[:2] == (193, 193)


@pytest.mark.parametrize("zbar", [3e7, 1e8])
def test_non_finite_scan_is_a_domain_error(zbar):
    # On a support this wide the corner's 1/z tail moment is inf, so the
    # scan's value there is 0 * inf = NaN; no cell is chosen from it.
    with pytest.raises(DomainError, match="the diag value at z = 0.0 is nan"):
        optimize(ModelParams(), SenderDist(1, 1, zbar))


def _hex(x) -> str:
    return float(x).hex()


@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
def test_scan_corners_are_their_closed_forms(shape, monkeypatch):
    # No line pass evaluates the grid's ends. At z = 0 both lines are the
    # pooling corner, pi_p(p, d, 0) = pi_w(p, d, 0, 0).total: A k E[z] E[z^q]
    # when a = 0 and exactly 0 otherwise. At zbar the edge is pi_s and the
    # diagonal 0. Each equals its scalar function bit for bit.
    grids, best = [], optimizer._best
    monkeypatch.setattr(optimizer, "_best", lambda *lines: grids.append(lines) or best(*lines))
    rng = np.random.default_rng(29)
    d = SenderDist(*shape, 3)
    draws = [random_admissible(rng) for _ in range(4)]
    for p in (ModelParams(), ModelParams(a=0.0), *draws, *(dataclasses.replace(p, a=0.0)
                                                           for p in draws[:2])):
        grids.clear()
        out = optimize(p, d)
        (edge, diag), = grids
        corner = pi_p(p, d, 0.0)
        assert len(edge) == len(diag) == _GRID
        assert {_hex(edge[0]), _hex(diag[0]), _hex(pi_w(p, d, 0.0, 0.0).total)} == {_hex(corner)}
        assert _hex(edge[-1]) == _hex(pi_s(p, d)) == _hex(out.pi_s)
        assert diag[-1] == 0.0
        if p.a == 0.0:
            assert corner == pytest.approx(p.A * p.k * d.mean * d.partial_moment(0.0, p.q))
        else:
            assert corner == 0.0


def test_breakdowns_hold_floats_in_every_class():
    # optimize and pi_w price a Pooling, a StrictlyWellBehaved and a
    # Separating record into Python floats alike.
    outcomes = [
        optimize(ModelParams(a=0.0), SenderDist(5, 5, 3)),
        optimize(ModelParams(), SenderDist(5, 5, 3)),
        optimize(ModelParams(a=0.6718, q=1.9107, k=1.2349), SenderDist(0.3018, 7.9258, 2.3305)),
    ]
    classes = [out.thresholds.eq_class for out in outcomes]
    assert classes == [POOLING, STRICTLY_WELL_BEHAVED, thresholds.SEPARATING]
    breakdowns = [out.surplus for out in outcomes]
    for z_l in (0.0, 0.5):
        breakdowns += [pi_w(ModelParams(), SenderDist(5, 5, 3), z_l, z_h) for z_h in (z_l, 1.5, 3.0)]
    for b in breakdowns:
        assert all(type(x) is float for x in (b.separating_part, b.pooling_part, b.total)), b


def test_support_narrower_than_the_scan_is_a_domain_error():
    # The scan's inner grid points must lie in [EFFECTIVE_ZERO, zbar -
    # EFFECTIVE_ZERO], where the line passes run, so zbar >= 60 EFFECTIVE_ZERO.
    with pytest.raises(DomainError, match="outside"):
        optimize(ModelParams(), SenderDist(1, 1, 5e-5))
    assert optimize(ModelParams(), SenderDist(1, 1, 1e-4)).surplus.total > 0.0
