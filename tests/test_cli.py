from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from delegate_opt import ModelParams, SenderDist
from delegate_opt.cli import load_config, main


def run_cli(*argv) -> int:
    return main(list(argv))


class TestConfig:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"A": 1, "bogus": 2}')
        assert run_cli("optimize", "--config", str(cfg)) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optimizer", [{"refine": "auto"}, {"grid": 1002}, {"grid": 61, "tol": 1e-6}, {}]
    )
    def test_removed_optimizer_settings_are_config_errors(self, tmp_path, capsys, optimizer):
        # The optimizer has no settings: its scan grid and root tolerance are
        # constants, so the config has no optimizer key, even an empty one.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"optimizer": optimizer}))
        assert run_cli("optimize", "--config", str(cfg)) == 1
        assert "unknown config keys: ['optimizer']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("[]", "config root must be a JSON object"),
         ('{"dist": 5}', "dist must be a JSON object"),
         ('{"dist": null}', "dist must be a JSON object"),
         ('{"dist": "ab"}', "dist must be a JSON object"),
         ('{"dist": [1, 1, 3]}', "dist must be a JSON object"),
         ('{"dist": {"gamma": 1}}', "unknown dist keys: ['gamma']"),
         ('{"A": "x"}', "bad config value"),
         ('{"dist": {"zbar": [3]}}', "bad config value"),
         ('{"k": null}', "bad config value"),
         ('{"a": "0.3"}', "a must be a JSON number"),
         ('{"q": true}', "q must be a JSON number"),
         ('{"k": "1e0"}', "k must be a JSON number"),
         ('{"dist": {"zbar": "3"}}', "zbar must be a JSON number"),
         ('{"dist": {"alpha": false}}', "alpha must be a JSON number"),
         ('{"A": 1' + "0" * 400 + '}', "A overflows a float"),
         (b'{"A": 1, "k": "\xff"}', "cannot read config")],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, text, message):
        # A non-object dist used to escape main() as a generic TypeError, or
        # (a string) to be read as its characters' keys; a numeric string or
        # a boolean used to be read as a number.
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run_cli("optimize", "--config", str(cfg)) == 1
        assert message in capsys.readouterr().err

    def test_readme_config_loads_the_defaults(self, tmp_path):
        # The config block under "Config JSON" in README.md shows the defaults.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Config JSON", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.json"
        cfg.write_text(block)
        assert load_config(str(cfg)) == (ModelParams(), SenderDist(1, 1, 3))

    def test_missing_file_is_config_error(self):
        assert run_cli("optimize", "--config", "/nonexistent.json") == 1

    def test_invalid_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"a": 1.5}')
        assert run_cli("optimize", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "text",
        ['{"A": Infinity}', '{"k": NaN}', '{"q": -Infinity}', '{"beta": NaN}',
         '{"dist": {"zbar": Infinity}}', '{"dist": {"alpha": NaN}}',
         '{"optimizer": {"tol": NaN}}', '{"optimizer": {"tol": 0}}'],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, text):
        # json.loads accepts NaN and Infinity, so the constructors check. The
        # optimizer key, whatever it holds, is itself unknown now.
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
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

    def test_non_finite_scan_is_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist": {"zbar": 1e8}}))
        assert run_cli("optimize", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the scan of SenderDist(") and "not finite" in err
        assert "Traceback" not in err

    def test_inverted_interval_rejected(self):
        assert run_cli("solve", "--t-low", "2", "--t-high", "1") == 1

    @pytest.mark.parametrize(
        "t_low, t_high",
        [("0", "nan"), ("nan", "1"), ("inf", "inf"), ("-inf", "1"), ("nan", "nan")],
    )
    def test_non_finite_reaction_is_config_error(self, t_low, t_high, capsys):
        # A NaN --t-high used to die inside brentq with a traceback, and a
        # NaN --t-low to exit 2; an infinite --t-high is a cap that never binds.
        assert run_cli("solve", f"--t-low={t_low}", f"--t-high={t_high}") == 1
        assert "config error" in capsys.readouterr().err

    def test_unbounded_cap_is_full_delegation(self, capsys):
        assert run_cli("solve", "--t-low", "0", "--t-high", "inf") == 0
        assert json.loads(capsys.readouterr().out)["eq_class"] == "Separating"


class TestOptimize:
    def test_baseline_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "A": 1, "beta": 0.5, "a": 0.5, "k": 1, "q": 1,
            "dist": {"alpha": 1, "beta": 1, "zbar": 3},
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

    @pytest.mark.parametrize(
        "content, message",
        [(None, "No such file or directory"),
         ("dir", "Is a directory"),
         (b"design,alpha\n5,1\n", "has no column 'beta_shape'"),
         (b"design,alpha,beta_shape,q,k,a,zbar,xbar,t_h,z_h,x_h,s_h\n"
          b"5,3,5,1,1,0.5,1,1,0.41,0.58,0.58,one\n", "could not convert string to float"),
         (b"\xff\xfe", "can't decode")],
        ids=["missing", "directory", "no-column", "not-a-number", "not-utf8"],
    )
    def test_unreadable_golden_is_config_error(self, tmp_path, capsys, content, message):
        # Each of these used to escape main() as a traceback.
        golden = tmp_path / "golden.csv"
        if content == "dir":
            golden.mkdir()
        elif content is not None:
            golden.write_bytes(content)
        assert run_cli("verify", "--design", "5", "--golden", str(golden)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(golden) in err and message in err

    def test_paths_design2(self, tmp_path):
        assert run_cli(
            "paths", "--design", "2", "--dist", "1,1", "--out", str(tmp_path)
        ) == 0
        names = sorted(f.name for f in tmp_path.iterdir())
        assert names == ["design2_beta1_1_t_h.csv", "design2_beta1_1_z_h.csv"]

    def test_paths_design4_one_file_pair_per_a(self, tmp_path):
        # Design 4 sweeps q at each of four a, so each a is its own panel.
        assert run_cli(
            "paths", "--design", "4", "--dist", "1,1", "--out", str(tmp_path)
        ) == 0
        names = {f.name for f in tmp_path.iterdir()}
        assert names == {
            f"design4_beta1_1_a{a}_{col}.csv"
            for a in ("0", "0.3", "0.6", "0.9") for col in ("t_h", "z_h")
        }

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

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert run_cli("diagnose", "--grid", "3") == 0
        printed = capsys.readouterr().out
        out = tmp_path / "diag.csv"
        assert run_cli("diagnose", "--grid", "3", "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_empty_grid_is_config_error(self, grid, capsys):
        # --grid -1 used to die in numpy's linspace with a ValueError.
        assert run_cli("diagnose", "--grid", grid) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("z_low", ["nan", "-0.5", "3", "inf"])
    def test_entry_type_outside_support_is_config_error(self, z_low, capsys):
        # The default zbar is 3. Such a --z-low used to exit 2 as a numerical
        # failure raised by SeparatingPath.
        assert run_cli("diagnose", "--grid", "5", f"--z-low={z_low}") == 1
        assert "config error" in capsys.readouterr().err

    def test_entry_type_inside_support_runs(self, capsys):
        assert run_cli("diagnose", "--grid", "3", "--z-low", "0.5") == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("0.500000,")


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv", [("optimize",), ("solve", "--t-low", "0", "--t-high", "inf"), ("diagnose",)],
        ids=lambda argv: argv[0],
    )
    def test_out_in_a_missing_directory_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.json"
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err

    @pytest.mark.parametrize(
        "argv", [("design", "--design", "5"), ("verify", "--design", "5"),
                 ("paths", "--design", "2", "--dist", "1,1")],
        ids=lambda argv: argv[0],
    )
    def test_out_directory_that_is_a_file_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delegate_opt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "delegate-opt" in proc.stdout
