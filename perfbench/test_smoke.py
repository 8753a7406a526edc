"""Smoke test of the benchmark itself: a few operations per workload.

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from run import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "0.01"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    untraced = report["untraced"]["metrics"]
    for name, unit in (("failed_share", "share"), ("generic_error_share", "share")):
        assert untraced[name]["unit"] == unit
    assert report["provenance"]["inputs_sha256"]
    if trace:
        assert (ROOT / ".perfbench_out" / f"{workload}-seed7-trace1-spans.npz").is_file()
        # Self times of the layers plus the unwrapped rest make up the
        # operations' wall time.
        metrics = result["metrics"]
        self_total = sum(m["value"] for n, m in metrics.items() if n.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["op.wall_s"]["value"], rel=1e-9)


def test_recorded_failure_is_counted_not_raised():
    proc = _run(ROOT, "singular-box", 0)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    # The first singular-box operation is alpha=7.03, beta_shape=0.34,
    # zbar=3.37, a=0.74, which raises ConvergenceError at the seed commit.
    assert result["failed"] >= 1
    assert report["untraced"]["failures_by_class"].get("ConvergenceError", 0) >= 1


def test_a_raising_operation_makes_the_run_incorrect(monkeypatch):
    _, work = run.timed_setup("design-rows", 7)  # puts src/ on sys.path
    from delegate_opt import harness
    from delegate_opt.errors import ConvergenceError

    def fails(*args, **kwargs):
        raise ConvergenceError("injected")

    monkeypatch.setattr(harness, "run_config", fails)
    summary = run.run_pass(work, 0.01)
    assert summary["correct"] is False
    assert summary["passed"] == 0
    assert summary["failures_by_class"] == {"ConvergenceError": summary["attempted"]}


def test_an_operation_past_the_deadline_is_a_failure(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    signal.signal(signal.SIGALRM, run._on_alarm)
    result, error = run.attempt(lambda _: time.sleep(5), None)
    assert result is None
    assert isinstance(error, run.OpDeadline)
    # An alarm after the operation has returned is ignored.
    assert run.attempt(lambda x: x, 3) == (3, None)
    signal.raise_signal(signal.SIGALRM)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "design-rows", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
