from __future__ import annotations

import json
import subprocess
import sys

import pytest

from delegate_opt import SenderDist
from delegate_opt.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


class TestConfig:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"A": 1, "bogus": 2}')
        assert run_cli("optimize", "--config", str(cfg)) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert run_cli("optimize", "--config", "/nonexistent.json") == 1

    def test_invalid_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"a": 1.5}')
        assert run_cli("optimize", "--config", str(cfg)) == 1


class TestSolve:
    def test_interval_to_record(self, tmp_path):
        out = tmp_path / "rec.json"
        assert run_cli("solve", "--t-low", "0", "--t-high", "7.2348", "--out", str(out)) == 0
        rec = json.loads(out.read_text())
        assert rec["eq_class"] == "StrictlyWellBehaved"
        assert rec["z_l"] == 0.0
        assert abs(rec["z_h"] - 1.75) < 1e-3

    THIN_TAIL = {
        "a": 0.5760575361358824, "q": 1.2320116553073412,
        "k": 0.9440934866642177,
        "dist": {"alpha": 1, "beta": 1, "zbar": 2.528501293910416},
    }
    THIN_TAIL_CAP = 4.609555916589276

    def solve_thin_tail(self, tmp_path, *extra) -> int:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.THIN_TAIL))
        return run_cli(
            "solve", "--config", str(cfg), "--t-low", "0.32133047412726606",
            "--t-high", str(self.THIN_TAIL_CAP), *extra,
        )

    def test_thin_tail_reproducer_solves(self, tmp_path):
        # The cap search probes z_h = zbar - 1e-6, where the tail mean exceeds
        # z_h by only 5e-7; a tail mean off by more leaves no pooled action.
        out = tmp_path / "rec.json"
        assert self.solve_thin_tail(tmp_path, "--out", str(out)) == 0
        rec = json.loads(out.read_text())
        assert rec["eq_class"] == "StrictlyWellBehaved"
        assert rec["z_h"] == pytest.approx(1.387621, abs=1e-6)
        assert rec["t_h"] == pytest.approx(self.THIN_TAIL_CAP, rel=1e-6)

    def test_thin_tail_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # A tail mean equal to z_h leaves no pooled action (DegenerateTailError).
        monkeypatch.setattr(SenderDist, "trunc_mean", lambda self, c: c)
        assert self.solve_thin_tail(tmp_path) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_inverted_interval_rejected(self):
        assert run_cli("solve", "--t-low", "2", "--t-high", "1") == 1


class TestOptimize:
    def test_baseline_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "A": 1, "beta": 0.5, "a": 0.5, "k": 1, "q": 1,
            "dist": {"alpha": 1, "beta": 1, "zbar": 3},
            "optimizer": {"grid": 31, "tol": 1e-6},
        }))
        assert run_cli("optimize", "--config", str(cfg)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["thresholds"]["eq_class"] == "StrictlyWellBehaved"
        assert abs(payload["thresholds"]["z_h"] - 1.755) < 0.01
        assert payload["interval"][0] == 0.0


class TestDesignVerifyPaths:
    def test_design5_files(self, tmp_path):
        out_dir = tmp_path / "tables"
        assert run_cli("design", "--design", "5", "--out", str(out_dir)) == 0
        files = sorted(f.name for f in out_dir.iterdir())
        assert files == [
            "design5_beta3_5.csv", "design5_beta5_3.csv", "design5_beta5_5.csv",
        ]

    def test_verify_design5_ok(self, tmp_path, capsys):
        assert run_cli("verify", "--design", "5", "--out", str(tmp_path)) == 0
        assert "0 failing" in capsys.readouterr().out
        assert (tmp_path / "deviations.csv").exists()
        assert (tmp_path / "computed_rows.csv").exists()

    def test_verify_corrupted_golden_fails(self, tmp_path, capsys):
        from delegate_opt.harness import load_golden

        lines = ["design,alpha,beta_shape,q,k,a,zbar,xbar,t_h,z_h,x_h,s_h"]
        for g in load_golden():
            if g.design != 5:
                continue
            lines.append(
                f"{g.design},{g.alpha:g},{g.beta_shape:g},{g.q:g},{g.k:g},"
                f"{g.a:g},{g.zbar:g},{g.xbar:g},{g.t_h:g},{g.z_h + 0.2:g},"
                f"{g.x_h:g},{g.s_h:g}"
            )
        bad = tmp_path / "golden.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--design", "5", "--golden", str(bad)) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_paths_design2(self, tmp_path):
        assert run_cli(
            "paths", "--design", "2", "--dist", "1,1", "--out", str(tmp_path)
        ) == 0
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["design2_beta1_1_t_h.csv", "design2_beta1_1_z_h.csv"]

    def test_fractional_dist_shape(self, tmp_path):
        assert run_cli(
            "design", "--design", "2", "--dist", "0.5,2", "--out", str(tmp_path)
        ) == 0
        rows = (tmp_path / "design2_beta0.5_2.csv").read_text().splitlines()
        assert len(rows) == 12
        assert rows[1].startswith("2,0.500000,2,")

    @pytest.mark.parametrize("shape", ["1,2,3", "inf,1"])
    def test_malformed_dist_shape(self, tmp_path, shape):
        assert run_cli("paths", "--design", "2", "--dist", shape, "--out", str(tmp_path)) == 1

    def test_bad_dist_argument(self, tmp_path):
        assert run_cli("paths", "--design", "2", "--dist", "x", "--out", str(tmp_path)) == 1


class TestDiagnose:
    def test_csv_to_stdout(self, capsys):
        assert run_cli("diagnose", "--grid", "5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z,sigma,tau,sender_rent,receiver_rent"
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 3.0 and last[1] == pytest.approx(9.0)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delegate_opt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "delegate-opt" in proc.stdout
