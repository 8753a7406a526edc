from __future__ import annotations

import dataclasses

import pytest

from delegate_opt import harness
from delegate_opt.distributions import _betaln
from delegate_opt.errors import ConfigError
from delegate_opt.harness import (
    DESIGN_TOLERANCES,
    CellDeviation,
    DesignRow,
    GoldenReport,
    compare_golden,
    emit_paths,
    load_golden,
    rows_to_csv,
    run_design,
)


@pytest.fixture(scope="module")
def design5_rows():
    return run_design(5)


class TestGoldenFixture:
    def test_loads_full_table(self):
        golden = load_golden()
        assert len(golden) == 311
        by_design = {}
        for g in golden:
            by_design[g.design] = by_design.get(g.design, 0) + 1
        assert by_design == {1: 44, 2: 44, 3: 44, 4: 176, 5: 3}

    def test_known_cells(self):
        golden = {g.key(): g for g in load_golden()}
        d1 = golden[(1, 1, 1, 1.0, 1.0, 0.5, 3.0)]
        assert (d1.z_h, d1.s_h, d1.t_h) == (1.75, 4.73, 15.40)
        d5 = golden[(5, 3, 5, 1.0, 1.0, 0.5, 3.0)]
        assert (d5.z_h, d5.s_h) == (1.62, 3.367)


class TestRunDesign:
    def test_design5_reproduces_golden(self, design5_rows):
        report = compare_golden(
            design5_rows, [g for g in load_golden() if g.design == 5]
        )
        assert report.ok, report.summary()

    def test_rows_have_zero_floor(self, design5_rows):
        for r in design5_rows:
            assert r.z_l == 0.0
            assert r.t_l == 0.0

    def test_non_monotone_fsd_ordering(self, design5_rows):
        z_h = {(r.alpha, r.beta_shape): r.z_h for r in design5_rows}
        assert z_h[(3, 5)] > z_h[(5, 5)]
        assert z_h[(3, 5)] > z_h[(5, 3)]

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError):
            run_design(7)

    def test_failures_annotated_with_row_parameters(self, monkeypatch):
        from delegate_opt.errors import ConvergenceError

        def boom(p, d, design):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(harness, "run_config", boom)
        with pytest.raises(ConvergenceError, match=r"design 5, row .*alpha"):
            run_design(5)


class TestCompareGolden:
    def _fake_rows(self):
        golden = [g for g in load_golden() if g.design == 5]
        rows = []
        for g in golden:
            rows.append(DesignRow(
                design=5, alpha=g.alpha, beta_shape=g.beta_shape, q=g.q, k=g.k,
                a=g.a, zbar=g.zbar, xbar=g.xbar, t_l=0.0, t_h=g.t_h, z_l=0.0,
                z_h=g.z_h, x_h=g.x_h, s_h=g.s_h, pi_w=1.0, pi_s=1.0,
                eq_class="StrictlyWellBehaved", percentile_zh=0.5,
            ))
        return rows, golden

    def test_identical_tables_pass(self):
        rows, golden = self._fake_rows()
        report = compare_golden(rows, golden)
        assert report.ok
        assert not report.failures

    def test_off_cell_flagged(self):
        rows, golden = self._fake_rows()
        bad = dataclasses.replace(rows[0], z_h=rows[0].z_h + 0.05)
        report = compare_golden([bad] + rows[1:], golden)
        assert not report.ok
        assert any(c.column == "z_h" for c in report.failures)

    def test_th_deviation_is_informational(self):
        rows, golden = self._fake_rows()
        bad = dataclasses.replace(rows[0], t_h=rows[0].t_h * 2.0)
        report = compare_golden([bad] + rows[1:], golden)
        assert report.ok
        cells = [c for c in report.cells if c.column == "t_h" and not c.enforced]
        assert len(cells) == 3

    def test_missing_golden_row_is_schema_error(self):
        rows, golden = self._fake_rows()
        with pytest.raises(ConfigError):
            compare_golden(rows, golden[:1])

    def test_enforced_th_cell_rule(self):
        # only design 4 (1,1) q=1 a=0 carries an enforced t_h tolerance
        golden = [g for g in load_golden() if g.design == 4 and g.alpha == 1]
        row_src = [g for g in golden if g.q == 1.0 and g.a == 0.0][0]
        row = DesignRow(
            design=4, alpha=1, beta_shape=1, q=1.0, k=1.0, a=0.0, zbar=3.0,
            xbar=3.0, t_l=0.0, t_h=0.80, z_l=0.0, z_h=row_src.z_h,
            x_h=row_src.x_h, s_h=row_src.s_h, pi_w=1.0, pi_s=1.0,
            eq_class="StrictlyWellBehaved", percentile_zh=0.5,
        )
        report = compare_golden([row], golden)
        assert [c.column for c in report.failures] == ["t_h"]

    def test_report_summary_and_csv(self):
        rows, golden = self._fake_rows()
        report = compare_golden(rows, golden)
        assert "enforced cells" in report.summary()
        csv_text = report.deviation_csv()
        assert csv_text.startswith("design,")
        assert csv_text.count("\n") == len(report.cells) + 1


class TestCsvOutput:
    def test_byte_determinism(self, design5_rows):
        assert rows_to_csv(design5_rows) == rows_to_csv(design5_rows)
        again = run_design(5)
        assert rows_to_csv(again) == rows_to_csv(design5_rows)

    def test_schema_header(self, design5_rows):
        header = rows_to_csv(design5_rows).splitlines()[0]
        assert header == (
            "design,alpha,beta_shape,q,k,a,zbar,xbar,t_l,t_h,z_l,z_h,x_h,s_h,"
            "pi_w,pi_s,class,percentile_zh"
        )

    def test_xbar_consistency(self, design5_rows):
        for r in design5_rows:
            assert r.xbar == pytest.approx(r.k * r.zbar**r.q, abs=1e-9)
            assert r.x_h == pytest.approx(r.k * r.z_h**r.q, abs=1e-9)


class TestEmitPaths:
    def test_design5_has_no_paths(self, design5_rows, tmp_path):
        with pytest.raises(ConfigError):
            emit_paths(design5_rows, tmp_path)

    def test_path_files_sorted(self, tmp_path):
        rows = run_design(2, shape=(1, 1))
        files = emit_paths(rows, tmp_path)
        assert len(files) == 2
        th_file = [f for f in files if f.name.endswith("t_h.csv")][0]
        lines = th_file.read_text().splitlines()
        assert lines[0] == "k,t_h"
        ks = [float(l.split(",")[0]) for l in lines[1:]]
        ts = [float(l.split(",")[1]) for l in lines[1:]]
        assert ks == sorted(ks) and len(ks) == 11
        # design 2: cap strictly increasing, threshold constant
        assert all(b > a for a, b in zip(ts, ts[1:]))
        zh_file = [f for f in files if f.name.endswith("z_h.csv")][0]
        zs = [float(l.split(",")[1]) for l in zh_file.read_text().splitlines()[1:]]
        assert max(zs) - min(zs) <= 0.01


def test_tolerance_table_covers_all_designs():
    assert set(DESIGN_TOLERANCES) == {1, 2, 3, 4, 5}


def test_cell_deviation_properties():
    cell = CellDeviation(("k",), "z_h", 1.0, 1.015, 0.02, True)
    assert cell.ok and cell.deviation == pytest.approx(0.015)
    report = GoldenReport([cell])
    assert report.ok


def test_design_rows_fit_the_betaln_cache():
    # The five sweeps cycle through their betaln keys in order, so an LRU
    # cache a few keys too small misses on every call of every sweep.
    _betaln.cache_clear()
    for design in range(1, 6):
        run_design(design)
    first = _betaln.cache_info()
    for design in range(1, 6):
        run_design(design)
    assert _betaln.cache_info().misses == first.misses, first
