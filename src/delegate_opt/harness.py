"""Experiment runner: the five numerical designs, golden regression, paths.

Design sweeps (baseline A=1, beta=0.5, a=0.5, k=1, q=1, types on [0, 3]):
  1: support upper bound zbar in 1.0..3.0 step 0.2, k=q=1
  2: scale k in 1.0..3.0 step 0.2, zbar=3
  3: spacing q in 1.0..2.0 step 0.1, zbar=3
  4: a in {0, 0.3, 0.6, 0.9} x q in 1.0..2.0 step 0.1, zbar=3
  5: the three skew/spread shapes at the baseline

Golden tables hold the transcribed reference values; z_h, x_h, s_h are
enforced cell by cell. The published t_h column is not reproducible from the
wage-integral equations for a > 0 (see the deviation report the comparison
emits); the one t_h cell that the equations do confirm, design 4 with the
flat-shape pair at (q=1, a=0), is enforced at 0.57 +- 0.01.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .distributions import SenderDist
from .errors import ConfigError, DelegateOptError
from .model import ModelParams
from .optimizer import DelegationOutcome, optimize

SHAPES = ((1, 1), (5, 5), (3, 5), (5, 3))
DESIGN5_SHAPES = ((3, 5), (5, 5), (5, 3))
_ZBAR_SWEEP = tuple(round(1.0 + 0.2 * i, 10) for i in range(11))
_K_SWEEP = tuple(round(1.0 + 0.2 * i, 10) for i in range(11))
_Q_SWEEP = tuple(round(1.0 + 0.1 * i, 10) for i in range(11))
_A_SWEEP = (0.0, 0.3, 0.6, 0.9)

SWEEP_VARS = {1: "zbar", 2: "k", 3: "q", 4: "q", 5: "alpha"}

# The single t_h cell the equations reproduce exactly; everything else in the
# t_h column is reported informationally.
ENFORCED_T_H = {(4, 1, 1, 1.0, 0.0): (0.57, 0.01)}


def _row_key(row) -> tuple:
    """A row's golden key: its design and configuration, rounded to 6 decimals."""
    config = (row.alpha, row.beta_shape, row.q, row.k, row.a, row.zbar)
    return (row.design, *(round(x, 6) for x in config))


@dataclass(frozen=True)
class DesignRow:
    design: int
    alpha: float
    beta_shape: float
    q: float
    k: float
    a: float
    zbar: float
    xbar: float
    t_l: float
    t_h: float
    z_l: float
    z_h: float
    x_h: float
    s_h: float
    pi_w: float
    pi_s: float
    eq_class: str
    percentile_zh: float

    key = _row_key


CSV_COLUMNS = [
    "design", "alpha", "beta_shape", "q", "k", "a", "zbar", "xbar",
    "t_l", "t_h", "z_l", "z_h", "x_h", "s_h", "pi_w", "pi_s", "class",
    "percentile_zh",
]
_FIELD_FOR_COLUMN = {c: c for c in CSV_COLUMNS} | {"class": "eq_class"}


def _design_configs(design: int, shape: tuple[int, int]):
    alpha, beta_shape = shape
    base = dict(alpha=alpha, beta_shape=beta_shape, q=1.0, k=1.0, a=0.5, zbar=3.0)
    if design == 1:
        return [dict(base, zbar=z) for z in _ZBAR_SWEEP]
    if design == 2:
        return [dict(base, k=k) for k in _K_SWEEP]
    if design == 3:
        return [dict(base, q=q) for q in _Q_SWEEP]
    if design == 4:
        return [dict(base, a=a, q=q) for a in _A_SWEEP for q in _Q_SWEEP]
    return [dict(base)]  # design 5; run_design rejects any other id first


def run_config(p: ModelParams, d: SenderDist, design: int) -> DesignRow:
    """One optimization, flattened into the output-table schema."""
    out: DelegationOutcome = optimize(p, d)
    rec = out.thresholds
    return DesignRow(
        design=design, alpha=d.alpha, beta_shape=d.beta_shape, q=p.q, k=p.k,
        a=p.a, zbar=d.zbar, xbar=p.k * d.zbar**p.q, t_l=rec.t_l, t_h=rec.t_h,
        z_l=rec.z_l, z_h=rec.z_h, x_h=rec.x_h, s_h=rec.s_h,
        pi_w=out.surplus.total, pi_s=out.pi_s, eq_class=rec.eq_class,
        percentile_zh=out.percentile_zh,
    )


def run_design(
    design: int,
    shape: tuple[int, int] | None = None,
    base_params: ModelParams | None = None,
) -> list[DesignRow]:
    """All rows of one design table (design 5 ignores the shape argument)."""
    if design not in (1, 2, 3, 4, 5):
        raise ConfigError(f"design id must be 1..5, got {design}")
    base = base_params or ModelParams()
    if design == 5:
        shapes = DESIGN5_SHAPES
    else:
        shapes = (shape,) if shape is not None else SHAPES
    rows = []
    for sh in shapes:
        for cfg in _design_configs(design, sh):
            p = ModelParams(A=base.A, beta_cost=base.beta_cost,
                            a=cfg["a"], k=cfg["k"], q=cfg["q"])
            d = SenderDist(cfg["alpha"], cfg["beta_shape"], cfg["zbar"])
            try:
                rows.append(run_config(p, d, design))
            except DelegateOptError as exc:
                raise type(exc)(f"{exc} [design {design}, row {cfg}]") from exc
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return f"{v:.6f}"


def rows_to_csv(rows: list[DesignRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [_fmt(getattr(r, _FIELD_FOR_COLUMN[c])) for c in CSV_COLUMNS]
        )
    return buf.getvalue()


def write_rows(rows: list[DesignRow], out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(rows_to_csv(rows), encoding="utf-8")


def emit_paths(rows: list[DesignRow], out_dir: Path) -> list[Path]:
    """Figure-path data: one (sweep_var, t_h) and one (sweep_var, z_h) CSV per
    panel, sorted by the sweep variable. Designs 1-4 only."""
    design = rows[0].design
    if design not in (1, 2, 3, 4):
        raise ConfigError("path files exist for designs 1-4 only")
    sweep = SWEEP_VARS[design]
    out_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple, list[DesignRow]] = {}
    for r in rows:
        gkey = (r.alpha, r.beta_shape) + ((r.a,) if design == 4 else ())
        groups.setdefault(gkey, []).append(r)
    written = []
    for gkey, members in sorted(groups.items()):
        members = sorted(members, key=lambda r: getattr(r, sweep))
        stem = f"design{design}_beta{gkey[0]:g}_{gkey[1]:g}"
        if design == 4:
            stem += f"_a{gkey[2]:g}"
        for col in ("t_h", "z_h"):
            path = out_dir / f"{stem}_{col}.csv"
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow([sweep, col])
            for r in members:
                writer.writerow([_fmt(getattr(r, sweep)), _fmt(getattr(r, col))])
            path.write_text(buf.getvalue(), encoding="utf-8")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Golden comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenRow:
    design: int
    alpha: float
    beta_shape: float
    q: float
    k: float
    a: float
    zbar: float
    xbar: float
    t_h: float
    z_h: float
    x_h: float
    s_h: float

    key = _row_key


@dataclass(frozen=True)
class GoldenTolerances:
    z_h: float = 0.02
    x_h: float = 0.02
    s_h: float = 0.02
    s_h_rel: float = 0.0  # if > 0: tolerance = max(s_h, s_h_rel * |golden|)
    xbar: float = 0.01


DESIGN_TOLERANCES = {
    1: GoldenTolerances(),
    2: GoldenTolerances(),
    3: GoldenTolerances(x_h=0.05, s_h=0.05),
    4: GoldenTolerances(x_h=0.05, s_h=0.02, s_h_rel=0.01),
    5: GoldenTolerances(z_h=0.01, x_h=0.01, s_h=0.02),
}


@dataclass(frozen=True)
class CellDeviation:
    key: tuple
    column: str
    computed: float
    golden: float
    tolerance: float
    enforced: bool

    @property
    def deviation(self) -> float:
        return abs(self.computed - self.golden)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass
class GoldenReport:
    cells: list[CellDeviation]

    @property
    def failures(self) -> list[CellDeviation]:
        return [c for c in self.cells if c.enforced and not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = []
        n_enforced = sum(c.enforced for c in self.cells)
        lines.append(
            f"golden comparison: {n_enforced} enforced cells, "
            f"{len(self.failures)} failing"
        )
        for c in self.cells:
            if c.enforced and not c.ok:
                lines.append(
                    f"  FAIL {c.key} {c.column}: computed {c.computed:.4f} vs "
                    f"golden {c.golden:.4f} (tol {c.tolerance:g})"
                )
        informational = [c for c in self.cells if not c.enforced]
        if informational:
            worst = max(informational, key=lambda c: c.deviation)
            lines.append(
                f"  t_h deviations (informational, {len(informational)} cells): "
                f"max |dev| {worst.deviation:.3f} at {worst.key}"
            )
        return "\n".join(lines)

    def deviation_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["design", "alpha", "beta_shape", "q", "k", "a", "zbar", "column",
             "computed", "golden", "deviation", "tolerance", "enforced", "ok"]
        )
        for c in self.cells:
            writer.writerow(
                [_fmt(v) for v in c.key]
                + [c.column, _fmt(c.computed), _fmt(c.golden), _fmt(c.deviation),
                   _fmt(c.tolerance), str(c.enforced).lower(), str(c.ok).lower()]
            )
        return buf.getvalue()


def load_golden(path: Path | None = None) -> list[GoldenRow]:
    """Golden rows, from the packaged fixture unless an override is given. A
    file that cannot be read or parsed is a ConfigError naming it."""
    path = Path(path) if path is not None else (
        resources.files("delegate_opt") / "golden" / "reference_tables.csv")
    try:
        return [
            GoldenRow(design=int(rec["design"]),
                      **{f.name: float(rec[f.name]) for f in fields(GoldenRow)
                         if f.name != "design"})
            for rec in csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
        ]
    except KeyError as exc:
        raise ConfigError(f"golden table {path} has no column {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:  # UTF-8 decoding errors included
        raise ConfigError(f"cannot read golden table {path}: {exc}") from exc


def compare_golden(rows: list[DesignRow], golden: list[GoldenRow]) -> GoldenReport:
    """Cell-by-cell deviations of computed rows against the golden table.

    z_h, x_h, s_h, and the parameter column xbar are enforced; t_h is
    reported per row but only the cross-validated cell fails the run.
    """
    by_key = {g.key(): g for g in golden}
    cells: list[CellDeviation] = []
    for r in rows:
        g = by_key.get(r.key())
        if g is None:
            raise ConfigError(f"no golden row for {r.key()}")
        tol = DESIGN_TOLERANCES[r.design]
        s_h_tol = max(tol.s_h, tol.s_h_rel * abs(g.s_h))
        cells.append(CellDeviation(r.key(), "z_h", r.z_h, g.z_h, tol.z_h, True))
        cells.append(CellDeviation(r.key(), "x_h", r.x_h, g.x_h, tol.x_h, True))
        cells.append(CellDeviation(r.key(), "s_h", r.s_h, g.s_h, s_h_tol, True))
        cells.append(CellDeviation(r.key(), "xbar", r.xbar, g.xbar, tol.xbar, True))
        t_cell = ENFORCED_T_H.get(
            (r.design, r.alpha, r.beta_shape, round(r.q, 6), round(r.a, 6))
        )
        if t_cell is not None:
            cells.append(CellDeviation(r.key(), "t_h", r.t_h, t_cell[0], t_cell[1], True))
        else:
            cells.append(CellDeviation(r.key(), "t_h", r.t_h, g.t_h, 0.0, False))
    return GoldenReport(cells)
