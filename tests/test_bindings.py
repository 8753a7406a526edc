"""The names the benchmark's tracer binds, and what importing the package costs."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import delegate_opt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # ``--trace 1`` fails on a layer whose name the package no longer has.
    tracing = _load("tracing")
    for name, module_name, attr in tracing.LAYERS:
        module = importlib.import_module(f"{delegate_opt.__name__}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_benchmark_checks_pass_on_the_first_inputs():
    # The benchmark's output checks on the first six inputs of each workload
    # (seed 3): a kernel change that breaks a gated check fails here too.
    workloads = _load("workloads")
    for name in workloads.GENERATORS:
        work = workloads.generate(name, 3)
        for inp in work.inputs[:6]:
            try:
                out = work.op(inp)
            except delegate_opt.DelegateOptError:
                assert work.typed_error_ok, (name, inp)
                continue
            assert work.check(inp, out) is None, (name, inp)


def test_optimize_diagnostics_hold_what_the_benchmark_reads():
    # The tracer sums n_grid_evals and refine_evals, and design-rows checks
    # the certificate against -1e-8.
    out = delegate_opt.optimize(delegate_opt.ModelParams(), delegate_opt.SenderDist(1, 1, 3))
    diagnostics = out.diagnostics
    assert diagnostics["grid"] == 61
    assert diagnostics["n_grid_evals"] == 2 * 61 - 1
    assert type(diagnostics["refine_evals"]) is int
    assert diagnostics["certificate"] >= -1e-8


def test_import_loads_no_optimize_or_integrate():
    # Both are imported on first use; loading them at import time costs
    # tens of megabytes that neither design-rows nor resolve-types needs.
    code = (
        "import sys, delegate_opt; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(delegate_opt.__file__).parents[1])},
    )
    assert out.stdout.strip() == "[]"
