"""The names the benchmark's tracer binds, what importing the package costs,
and that the package holds no function that nothing needs."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import delegate_opt
from delegate_opt import cli

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


# Functions that only an invalid input reaches.
ERROR_PATHS = {("thresholds", "_no_crossing")}


def _functions(code: types.CodeType, prefix: str = ""):
    """(first line, qualified name) of each function and method that a
    module's code defines; closures count as part of their function."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield const.co_firstlineno, prefix + const.co_name
            else:
                yield from _functions(const, f"{prefix}{const.co_name}.")


def _needed(module: str, qualname: str, layers: set) -> bool:
    """Public in __all__ (a class's public members too), traced by the
    benchmark, or an error path."""
    owner, _, member = qualname.rpartition(".")
    public = qualname in delegate_opt.__all__ or (
        owner in delegate_opt.__all__
        and (not member.startswith("_") or member.startswith("__")))
    return public or (module, qualname) in layers or (module, qualname) in ERROR_PATHS


def test_every_package_function_is_reached_or_needed(tmp_path):
    # A gate against regrowth: a few inputs of each workload and each CLI
    # command run under a profiler, and every function they do not reach
    # must be public, traced by the benchmark, or an error path.
    package = Path(delegate_opt.__file__).parent
    defined = {}
    for source in sorted(package.glob("*.py")):
        code = compile(source.read_text(encoding="utf-8"), str(source), "exec")
        defined.update(((str(source), line), (source.stem, name)) for line, name in _functions(code))
        # A cache hit runs no Python frame, so every memoized function starts cold.
        module = sys.modules.get(f"{delegate_opt.__name__}.{source.stem}", delegate_opt)
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    workloads = _load("workloads")
    layers = {(module, attr) for _, module, attr in _load("tracing").LAYERS}
    sys.setprofile(profile)
    try:
        for name in workloads.GENERATORS:
            work = workloads.generate(name, 3)
            for inp in work.inputs[:3]:
                try:
                    work.check(inp, work.op(inp))
                except delegate_opt.DelegateOptError:
                    pass
        for argv in (["solve", "--t-low", "0.1", "--t-high", "7"], ["optimize"],
                     ["design", "--design", "1", "--dist", "1,1", "--out", str(tmp_path)],
                     ["verify", "--design", "2", "--dist", "1,1", "--out", str(tmp_path)],
                     ["paths", "--design", "1", "--dist", "1,1", "--out", str(tmp_path)],
                     ["diagnose", "--grid", "3"]):
            assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    unneeded = sorted(name for key, name in defined.items()
                      if key not in reached and not _needed(*name, layers))
    assert unneeded == []
