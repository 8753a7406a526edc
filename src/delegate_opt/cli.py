"""Command-line interface.

Subcommands: solve (interval -> thresholds record), optimize (full planner
solution), design (sweep tables), verify (golden regression), paths (figure
path data), diagnose (separating-path dump).

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 golden mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .distributions import SenderDist
from .errors import ConfigError, DelegateOptError
from .model import ModelParams
from .optimizer import optimize
from .separating import SeparatingPath
from .thresholds import invert_cap, invert_floor

_CONFIG_KEYS = {"A", "beta", "a", "k", "q", "dist"}
_DIST_KEYS = {"alpha", "beta", "zbar"}


def _number(table: dict, key: str, default: float) -> float:
    """table[key], or the default, as a float: a JSON number and nothing else."""
    value = table.get(key, default)
    # bool is an int to Python, but true is not a JSON number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"bad config value: {key} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal past the float range
        raise ConfigError(f"bad config value: {key} overflows a float") from exc


def load_config(path: str | None) -> tuple[ModelParams, SenderDist]:
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSON and UTF-8 decoding errors included
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    dist_raw = raw.get("dist", {})
    if not isinstance(dist_raw, dict):
        raise ConfigError(f"dist must be a JSON object, got {dist_raw!r}")
    if set(dist_raw) - _DIST_KEYS:
        raise ConfigError(f"unknown dist keys: {sorted(set(dist_raw) - _DIST_KEYS)}")
    p = ModelParams(
        A=_number(raw, "A", 1.0),
        beta_cost=_number(raw, "beta", 0.5),
        a=_number(raw, "a", 0.5),
        k=_number(raw, "k", 1.0),
        q=_number(raw, "q", 1.0),
    )
    d = SenderDist(
        alpha=_number(dist_raw, "alpha", 1.0),
        beta_shape=_number(dist_raw, "beta", 1.0),
        zbar=_number(dist_raw, "zbar", 3.0),
    )
    return p, d


def _parse_shape(text: str) -> tuple[float, float]:
    try:
        shape = tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--dist expects 'alpha,beta', got {text!r}") from exc
    if len(shape) != 2 or not all(math.isfinite(v) for v in shape):
        raise ConfigError(f"--dist expects 'alpha,beta', got {text!r}")
    # Whole shapes stay ints, so tables print them as the full sweeps do.
    return tuple(int(v) if v.is_integer() else v for v in shape)


def _dump_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _cmd_solve(args) -> int:
    p, d = load_config(args.config)
    if not math.isfinite(args.t_low) or math.isnan(args.t_high):
        raise ConfigError(f"need a finite --t-low and a --t-high, got {args.t_low}, {args.t_high}")
    if args.t_high < args.t_low:
        raise ConfigError("--t-high below --t-low")
    z_l = invert_floor(p, d, args.t_low)
    path = SeparatingPath(p, z_l, d.zbar)
    rec = invert_cap(p, d, path, args.t_high)
    _dump_json(dataclasses.asdict(rec), args.out)
    return 0


def _cmd_optimize(args) -> int:
    p, d = load_config(args.config)
    out = optimize(p, d)
    payload = {
        "thresholds": dataclasses.asdict(out.thresholds),
        "interval": list(out.interval),
        "surplus": dataclasses.asdict(out.surplus),
        "percentile_zh": out.percentile_zh,
        "diagnostics": out.diagnostics,
    }
    _dump_json(payload, args.out)
    return 0


def _run_rows(args, design: int) -> list[harness.DesignRow]:
    p, _ = load_config(args.config)
    shape = _parse_shape(args.dist) if args.dist else None
    return harness.run_design(design, shape=shape, base_params=p)


def _cmd_design(args) -> int:
    rows = _run_rows(args, args.design)
    out_dir = Path(args.out)
    by_shape: dict[tuple, list] = {}
    for r in rows:
        by_shape.setdefault((r.alpha, r.beta_shape), []).append(r)
    for (alpha, beta_shape), members in sorted(by_shape.items()):
        name = f"design{args.design}_beta{alpha:g}_{beta_shape:g}.csv"
        harness.write_rows(members, out_dir / name)
        print(out_dir / name)
    return 0


def _cmd_verify(args) -> int:
    golden = harness.load_golden(Path(args.golden) if args.golden else None)
    designs = [args.design] if args.design else [1, 2, 3, 4, 5]
    all_rows = []
    for design in designs:
        all_rows.extend(_run_rows(args, design))
    keys = {r.key() for r in all_rows}
    report = harness.compare_golden(
        all_rows, [g for g in golden if g.key() in keys]
    )
    print(report.summary())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "deviations.csv").write_text(
            report.deviation_csv(), encoding="utf-8"
        )
        harness.write_rows(all_rows, out_dir / "computed_rows.csv")
    return 0 if report.ok else 3


def _cmd_paths(args) -> int:
    rows = _run_rows(args, args.design)
    for path in harness.emit_paths(rows, Path(args.out)):
        print(path)
    return 0


def _cmd_diagnose(args) -> int:
    p, d = load_config(args.config)
    if args.grid < 1:
        raise ConfigError(f"--grid must be at least 1, got {args.grid}")
    if not 0.0 <= args.z_low < d.zbar:
        raise ConfigError(f"--z-low must lie in [0, zbar={d.zbar}), got {args.z_low}")
    path = SeparatingPath(p, args.z_low, d.zbar)
    zs = np.linspace(args.z_low, d.zbar, args.grid)
    lines = ["z,sigma,tau,sender_rent,receiver_rent"]
    for z in zs:
        s = path.sigma_tilde(float(z))
        lines.append(
            f"{z:.6f},{s:.6f},{path.tau_tilde(s):.6f},"
            f"{path.sender_rent(float(z)):.6f},{path.receiver_rent(float(z)):.6f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delegate-opt",
        description="Optimal delegation intervals in matching markets with signaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp_):
        sp_.add_argument("--config", help="JSON config file")

    p_solve = sub.add_parser("solve", help="map a reaction interval to thresholds")
    add_common(p_solve)
    p_solve.add_argument("--t-low", type=float, required=True)
    p_solve.add_argument("--t-high", type=float, required=True)
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=_cmd_solve)

    p_opt = sub.add_parser("optimize", help="solve the planner's problem")
    add_common(p_opt)
    p_opt.add_argument("--out")
    p_opt.set_defaults(func=_cmd_optimize)

    p_design = sub.add_parser("design", help="run one design sweep to CSV")
    add_common(p_design)
    p_design.add_argument("--design", type=int, required=True, choices=range(1, 6))
    p_design.add_argument("--dist", help="restrict to one Beta shape: alpha,beta")
    p_design.add_argument("--out", required=True, help="output directory")
    p_design.set_defaults(func=_cmd_design)

    p_verify = sub.add_parser("verify", help="compare designs against golden tables")
    add_common(p_verify)
    p_verify.add_argument("--design", type=int, choices=range(1, 6))
    p_verify.add_argument("--dist", help="restrict to one Beta shape: alpha,beta")
    p_verify.add_argument("--golden", help="override the embedded golden CSV")
    p_verify.add_argument("--out", help="directory for deviation/computed CSVs")
    p_verify.set_defaults(func=_cmd_verify)

    p_paths = sub.add_parser("paths", help="emit figure path data (designs 1-4)")
    add_common(p_paths)
    p_paths.add_argument("--design", type=int, required=True, choices=range(1, 5))
    p_paths.add_argument("--dist", help="restrict to one Beta shape: alpha,beta")
    p_paths.add_argument("--out", required=True, help="output directory")
    p_paths.set_defaults(func=_cmd_paths)

    p_diag = sub.add_parser("diagnose", help="dump the separating path as CSV")
    add_common(p_diag)
    p_diag.add_argument("--z-low", type=float, default=0.0)
    p_diag.add_argument("--grid", type=int, default=101)
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # reads raise ConfigError: OSError is an unwritable --out
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DelegateOptError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
