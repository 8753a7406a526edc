"""Acceptance gate: every criterion at its stated tolerance.

Runs the five designs once (module-scoped) and checks each criterion,
printing one PASS/FAIL line per criterion. Run with `pytest -v -s` to see
the lines as they complete.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from delegate_opt import (
    ModelParams,
    SenderDist,
    SeparatingPath,
    model,
    optimize,
    pi_p,
    pi_s,
    pi_w,
    solve_top,
    well_behaved_gain,
)
from delegate_opt.harness import CSV_COLUMNS, load_golden, rows_to_csv, run_design
from delegate_opt.thresholds import POOLING, STRICTLY_WELL_BEHAVED

from conftest import (
    BASELINE_SHAPES, brute_force_triangle, c_s, mu_prime, random_admissible, v_s, v_z,
)


def _report(criterion: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {name}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def tables():
    rows, seconds = {}, {}
    for design in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        rows[design] = run_design(design)
        seconds[design] = time.perf_counter() - t0
    return rows, seconds


@pytest.fixture(scope="module")
def golden_by_key():
    return {g.key(): g for g in load_golden()}


def test_criterion_01_design1_reproduction(tables, golden_by_key):
    rows, seconds = tables
    failures = []
    assert len(rows[1]) == 44
    for r in rows[1]:
        g = golden_by_key[r.key()]
        for col in ("z_h", "x_h", "s_h"):
            dev = abs(getattr(r, col) - getattr(g, col))
            if dev > 0.02:
                failures.append(f"{r.key()} {col} dev {dev:.3f}")
    if seconds[1] > 120.0:
        failures.append(f"design 1 took {seconds[1]:.1f}s > 120s")
    _report(1, f"design 1: 44 rows within 0.02 in {seconds[1]:.1f}s", failures)


def test_criterion_02_design2_invariance(tables, golden_by_key):
    rows, _ = tables
    failures = []
    for shape in BASELINE_SHAPES:
        d2 = sorted(
            (r for r in rows[2] if (r.alpha, r.beta_shape) == shape),
            key=lambda r: r.k,
        )
        d1_at_3 = [
            r for r in rows[1]
            if (r.alpha, r.beta_shape) == shape and r.zbar == 3.0
        ][0]
        z_hs = [r.z_h for r in d2]
        if max(z_hs) - min(z_hs) > 0.01:
            failures.append(f"{shape} z_h spread {max(z_hs) - min(z_hs):.4f}")
        if abs(z_hs[0] - d1_at_3.z_h) > 0.01:
            failures.append(f"{shape} z_h differs from design-1 value")
        t_hs = [r.t_h for r in d2]
        if not all(b > a for a, b in zip(t_hs, t_hs[1:])):
            failures.append(f"{shape} t_h not strictly increasing in k")
    _report(2, "design 2: z_h invariant in k, t_h increasing", failures)


def test_criterion_03_design3_reproduction(tables, golden_by_key):
    rows, _ = tables
    failures = []
    assert len(rows[3]) == 44
    for r in rows[3]:
        g = golden_by_key[r.key()]
        if abs(r.z_h - g.z_h) > 0.02:
            failures.append(f"{r.key()} z_h dev {abs(r.z_h - g.z_h):.3f}")
        if abs(r.s_h - g.s_h) > 0.05:
            failures.append(f"{r.key()} s_h dev {abs(r.s_h - g.s_h):.3f}")
        if abs(r.xbar - g.xbar) > 1e-2:
            failures.append(f"{r.key()} xbar dev {abs(r.xbar - g.xbar):.4f}")
    _report(3, "design 3: z_h/s_h/xbar columns reproduced", failures)


def test_criterion_04_design4_classification(tables, golden_by_key):
    rows, _ = tables
    failures = []
    for r in rows[4]:
        g = golden_by_key[r.key()]
        shape = (r.alpha, r.beta_shape)
        if r.a == 0.0 and shape in ((5, 5), (5, 3)):
            if r.eq_class != POOLING or r.z_h != 0.0 or r.t_h != 0.0 or r.s_h != 0.0:
                failures.append(f"{r.key()} expected degenerate pooling")
        elif r.a == 0.0 and shape == (1, 1):
            if r.eq_class != STRICTLY_WELL_BEHAVED:
                failures.append(f"{r.key()} expected strictly well-behaved")
            if abs(r.z_h - g.z_h) > 0.02:
                failures.append(f"{r.key()} z_h dev {abs(r.z_h - g.z_h):.3f}")
        elif r.a > 0.0:
            if r.eq_class != STRICTLY_WELL_BEHAVED:
                failures.append(f"{r.key()} expected strictly well-behaved")
            if abs(r.z_h - g.z_h) > 0.02:
                failures.append(f"{r.key()} z_h dev {abs(r.z_h - g.z_h):.3f}")
            if abs(r.s_h - g.s_h) > 0.01 * g.s_h:
                failures.append(f"{r.key()} s_h rel dev > 1%")
    _report(4, "design 4: classification and tolerances", failures)


def test_criterion_05_design5_fsd(tables):
    rows, _ = tables
    failures = []
    expected = {
        (3, 5): (1.620, 3.367),
        (5, 5): (1.338, 2.686),
        (5, 3): (1.344, 3.089),
    }
    z_h = {}
    for r in rows[5]:
        shape = (r.alpha, r.beta_shape)
        z_want, s_want = expected[shape]
        z_h[shape] = r.z_h
        if abs(r.z_h - z_want) > 0.01:
            failures.append(f"{shape} z_h {r.z_h:.4f} vs {z_want}")
        if abs(r.s_h - s_want) > 0.02:
            failures.append(f"{shape} s_h {r.s_h:.4f} vs {s_want}")
    if not (z_h[(3, 5)] > z_h[(5, 5)] and z_h[(3, 5)] > z_h[(5, 3)]):
        failures.append("non-monotone FSD ordering not reproduced")
    _report(5, "design 5: FSD table and ordering", failures)


def test_criterion_06_cap_retrieval_consistency(tables, rng):
    rows, _ = tables
    failures = []
    for i in range(100):
        p = random_admissible(rng)
        d = SenderDist(*BASELINE_SHAPES[int(rng.integers(4))], 3)
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
        if abs(t_sellers - t_buyers) > 1e-6 * max(1.0, abs(t_sellers)):
            failures.append(f"draw {i}: retrievals disagree")
    # strict monotonicity of the cap in the threshold
    p0, d0 = ModelParams(), SenderDist(1, 1, 3)
    path0 = SeparatingPath(p0, 0.0, 3.0)
    caps = [solve_top(p0, d0, path0, float(z))[1] for z in np.linspace(0.05, 2.9, 40)]
    if not all(b > a for a, b in zip(caps, caps[1:])):
        failures.append("t_h not strictly increasing in z_h")
    # the cross-validated cell
    cell = [
        r for r in rows[4]
        if (r.alpha, r.beta_shape, r.q, r.a) == (1, 1, 1.0, 0.0)
    ][0]
    if abs(cell.t_h - 0.57) > 0.01:
        failures.append(f"enforced t_h cell {cell.t_h:.4f} vs 0.57")
    _report(6, "cap retrievals agree; t_h monotone; 0.57 cell", failures)


def test_criterion_07_small_cap_dominance(rng):
    failures = []
    for shape in BASELINE_SHAPES:
        d = SenderDist(*shape, 3)
        p = ModelParams(q=0.01, a=0.01)
        full = pi_s(p, d)
        grid = np.linspace(3.0 / 50.0, 3.0 * 49.0 / 50.0, 49)
        if not any(pi_w(p, d, 0.0, float(z)).total > full for z in grid):
            failures.append(f"{shape}: no z_h beats full delegation")
        limit = 0.5 * d.mean  # A k mu_z / 2 at A = k = 1
        gap = well_behaved_gain(ModelParams(), d, 1e-4, 1e-4, 1e-3)
        if abs(gap - limit) > 0.05 * limit:
            failures.append(f"{shape}: gap {gap:.4f} vs limit {limit:.4f}")
    _report(7, "small caps beat full delegation; limit gap", failures)


def test_criterion_08_single_reaction_dominance(rng):
    failures = []
    p = ModelParams(q=0.01, a=0.01)
    for shape in BASELINE_SHAPES:
        d = SenderDist(*shape, 3)
        full = pi_s(p, d)
        grid = np.linspace(3.0 / 50.0, 3.0 * 49.0 / 50.0, 49)
        if not any(pi_p(p, d, float(z)) > full for z in grid):
            failures.append(f"{shape}: no pooling threshold beats full delegation")
    _report(8, "single reaction beats full delegation for small q, a", failures)


def test_criterion_09_analytic_invariants(rng):
    failures = []
    # (a) ODE residual, 20 draws x 50 points
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
            if abs(resid) > 1e-6 * max(1.0, abs(c_s(p, s, mu))):
                failures.append(f"ODE residual {resid:.2e}")
                break
    # (b) round trip
    for _ in range(10):
        p = random_admissible(rng)
        z_l = float(rng.choice([0.0, rng.uniform(0.1, 1.5)]))
        path = SeparatingPath(p, z_l, 3.0)
        zs = np.linspace(z_l, 3.0, 50)
        if np.max(np.abs(path.mu_tilde(path.sigma_many(zs)) - zs)) > 1e-8:
            failures.append("mu(sigma(z)) round trip above 1e-8")
            break
    # (c) uniform closed-form surplus oracle
    import math

    from delegate_opt.thresholds import pooled_action

    p0, d0 = ModelParams(), SenderDist(1, 1, 3)
    path0 = SeparatingPath(p0, 0.0, 3.0)
    for z_h in np.linspace(0.2, 2.9, 10):
        z_h = float(z_h)
        s_h = pooled_action(p0, d0, path0, z_h)
        b = pi_w(p0, d0, 0.0, z_h)
        sep_o = z_h**4 / 24.0
        pool_o = (
            math.sqrt(s_h) * ((z_h + 3.0) / 2.0) * ((9.0 - z_h**2) / 6.0)
            - 0.5 * s_h**2 * (math.log(3.0) - math.log(z_h)) / 3.0
        )
        if abs(b.separating_part - sep_o) > 1e-8 or abs(b.pooling_part - pool_o) > 1e-8:
            failures.append(f"surplus oracle mismatch at z_h={z_h:.2f}")
    # (d) top system collapses monotonically to the entry pair at the zero floor
    s_prev, t_prev = np.inf, np.inf
    for dd in (2, 3, 4, 5, 6):
        s_h, t_h = solve_top(p0, d0, path0, 10.0**-dd)
        if not (0.0 < s_h < s_prev and 0.0 < t_h < t_prev):
            failures.append("limit to the entry pair not monotone")
            break
        s_prev, t_prev = s_h, t_h
    # (e) brute-force 201x201 never beats the refined optimum by > 1e-8
    for params, shape in [
        (ModelParams(), (1, 1)),
        (ModelParams(), (3, 5)),
        (ModelParams(a=0.0, q=1.0), (1, 1)),
        (ModelParams(a=0.6, q=1.5), (5, 3)),
    ]:
        d = SenderDist(*shape, 3)
        out = optimize(params, d)
        brute = brute_force_triangle(params, d, 201)
        if out.surplus.total < np.nanmax(brute) - 1e-8:
            failures.append(f"brute force beat the optimizer at {shape}")
    _report(9, "analytic invariant suite", failures)


def test_design_table_invariants(tables):
    """Supporting invariants on the emitted tables (not a numbered criterion)."""
    rows, _ = tables
    failures = []
    for design, design_rows in rows.items():
        for r in design_rows:
            if r.z_l != 0.0 or r.t_l != 0.0:
                failures.append(f"{r.key()} nonzero floor")
            if abs(r.xbar - r.k * r.zbar**r.q) > 1e-9:
                failures.append(f"{r.key()} xbar inconsistent")
            if abs(r.x_h - r.k * r.z_h**r.q) > 1e-9:
                failures.append(f"{r.key()} x_h inconsistent")
    by_shape = lambda design: {
        shape: sorted(
            (r for r in rows[design] if (r.alpha, r.beta_shape) == shape),
            key=lambda r: (r.a, r.q, r.k, r.zbar),
        )
        for shape in BASELINE_SHAPES
    }
    # designs 1 and 3: both paths strictly increasing in the sweep variable
    for design in (1, 3):
        for shape, rs in by_shape(design).items():
            for col in ("t_h", "z_h"):
                vals = [getattr(r, col) for r in rs]
                if not all(b > a for a, b in zip(vals, vals[1:])):
                    failures.append(f"design {design} {shape} {col} not increasing")
    # design 2: cap increasing, threshold flat
    for shape, rs in by_shape(2).items():
        t_hs = [r.t_h for r in rs]
        z_hs = [r.z_h for r in rs]
        if not all(b > a for a, b in zip(t_hs, t_hs[1:])):
            failures.append(f"design 2 {shape} t_h not increasing")
        if max(z_hs) - min(z_hs) > 0.01:
            failures.append(f"design 2 {shape} z_h not constant")
    # design 4: nondecreasing in a at fixed q for a > 0
    for shape in BASELINE_SHAPES:
        for q in {r.q for r in rows[4]}:
            rs = sorted(
                (r for r in rows[4]
                 if (r.alpha, r.beta_shape) == shape and r.q == q and r.a > 0),
                key=lambda r: r.a,
            )
            for col in ("t_h", "z_h"):
                vals = [getattr(r, col) for r in rs]
                if not all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])):
                    failures.append(f"design 4 {shape} q={q} {col} decreasing in a")
    # design 1: the pooling percentile is invariant to the support bound
    for shape, rs in by_shape(1).items():
        pcts = [r.percentile_zh for r in rs]
        if max(pcts) - min(pcts) > 0.01:
            failures.append(f"design 1 {shape} percentile varies with zbar")
    uniform_pcts = [r.percentile_zh for r in by_shape(1)[(1, 1)]]
    if abs(uniform_pcts[0] - 0.585) > 0.01:
        failures.append("design 1 flat-shape percentile away from 0.585")
    assert not failures, "; ".join(failures[:10])


def test_criterion_10_determinism(tables):
    rows, _ = tables
    failures = []
    first = rows_to_csv(rows[5])
    second = rows_to_csv(run_design(5))
    if first != second:
        failures.append("design 5 CSV not byte-identical across runs")
    a = optimize(ModelParams(), SenderDist(1, 1, 3))
    b = optimize(ModelParams(), SenderDist(1, 1, 3))
    if a.thresholds != b.thresholds or a.surplus != b.surplus:
        failures.append("repeated optimize() runs differ")
    _report(10, "determinism: byte-identical CSV, identical reruns", failures)


# rows_to_csv of all five designs, as ``verify --out`` writes computed_rows.csv.
# A change that moves a cell regenerates this file; its diff lists the cells.
SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "design_rows.csv"
_KEY_COLUMNS = 7  # design, alpha, beta_shape, q, k, a, zbar


def _cells(text: str) -> dict[tuple, dict[str, str]]:
    header, *rows = csv.reader(text.splitlines())
    return {tuple(r[:_KEY_COLUMNS]): dict(zip(header, r)) for r in rows}


def test_tables_match_the_snapshot_byte_for_byte(tables):
    rows, _ = tables
    text = rows_to_csv([r for design in (1, 2, 3, 4, 5) for r in rows[design]])
    want = SNAPSHOT.read_text(encoding="utf-8")
    if text == want:
        return
    old, new = _cells(want), _cells(text)
    moved = [f"row missing from the tables: {key}" for key in old.keys() - new.keys()]
    moved += [f"row not in the snapshot: {key}" for key in new.keys() - old.keys()]
    for key in old.keys() & new.keys():
        moved += [
            f"{key} {c} {old[key][c]} -> {new[key][c]}"
            for c in CSV_COLUMNS if old[key][c] != new[key][c]
        ]
    pytest.fail(
        f"{len(moved)} cells moved against {SNAPSHOT.name} "
        "(or the rows, their order or the header changed):\n" + "\n".join(sorted(moved))
    )
