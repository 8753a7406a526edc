#!/usr/bin/env python3
"""Benchmark of the delegate_opt package, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload design-rows --seed 1 --seconds 30 --trace 0

Workloads: design-rows, solve-interval, resolve-types, singular-box (see
workloads.py). The package is imported from ``src/`` of the checkout;
nothing is installed.

``--trace 0`` measures the end-to-end metrics with no instrumentation. Each
operation is timed in CPU time of this process and in wall-clock time.
``--trace 1`` runs the same untraced pass, then a traced pass with every
package layer wrapped from the benchmark's own files (see tracing.py), and
reports per-layer calls, busy time, self time and inner work counts, plus the
tracing overhead. Every operation is attempted and classified; a failure
never aborts the run. Each output is checked right after its operation,
outside the timed interval.

Standard output ends with two JSON lines: the full report (metrics with
units, failures by class, provenance), then the result
``{"correct", "attempted", "failed", "metrics"}``. Both, and the spans of a
traced run, are also written under ``.perfbench_out/`` in the checkout.
"""

import os

# One thread for every BLAS/OpenMP pool, set before numpy is first imported;
# the set-up probes inherit it.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("design-rows", "solve-interval", "resolve-types", "singular-box")
# Set-up is timed once in this process and once in each fresh interpreter.
SETUP_PROBES = 4
# An operation still running after this long counts as failed ("Deadline").
# At the seed commit a few singular-box draws would otherwise run for
# minutes; no operation of the other workloads comes near it.
DEADLINE_S = 20.0
# op_ms_p90 needs at least ten samples above it.
P90_MIN_OPS = 100


class OpDeadline(Exception):
    """An operation ran past DEADLINE_S."""


# True only while an operation runs, so that an alarm which arrives after the
# operation has returned is ignored.
_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpDeadline(f"operation ran past {DEADLINE_S:g} s")


def attempt(op, inp):
    """(result, None) or (None, exception) of one operation under the deadline.

    The timer is one-shot, so its alarm raises at most once, and wherever
    that happens it is caught here.
    """
    global _armed
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            return op(inp), None
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # every failure is counted, none aborts the run
        return None, exc


def timed_setup(name: str, seed: int):
    """Import the package and generate the inputs; (seconds, workload)."""
    start = time.perf_counter()
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import delegate_opt
    import workloads

    if Path(delegate_opt.__file__).resolve().parent != SRC / "delegate_opt":
        raise ImportError(f"delegate_opt came from {delegate_opt.__file__}, not {SRC}")
    work = workloads.generate(name, seed)
    return time.perf_counter() - start, work


def _probe_setup(name: str, seed: int) -> float:
    code = "import sys, run; print(run.timed_setup(sys.argv[1], int(sys.argv[2]))[0])"
    proc = subprocess.run(
        [sys.executable, "-c", code, name, str(seed)],
        cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def verdict(work, inp, result, error) -> tuple[str | None, str | None]:
    """(failure class, what is wrong) of one operation; (None, None) if none.

    A typed DelegateOptError is a failure in every workload, and a wrong
    output too unless the workload accepts it.
    """
    from delegate_opt.errors import DelegateOptError

    if error is None:
        try:
            problem = work.check(inp, result)
        except Exception as exc:  # a check that cannot run is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
        return (None, None) if problem is None else ("CheckFailed", problem)
    cls = "Deadline" if isinstance(error, OpDeadline) else type(error).__name__
    if work.typed_error_ok and isinstance(error, DelegateOptError):
        return cls, None
    return cls, f"raised {cls}: {error}"


class Tally:
    """Counts and latencies of one pass; no result or exception is kept."""

    def __init__(self) -> None:
        self.wall_ms = array("d")
        self.cpu_ms = array("d")
        self.passed = 0
        self.generic = 0
        self.classes: dict[str, int] = {}
        self.wrong: list[str] = []
        self.n_wrong = 0

    def add(self, work, inp, wall_s: float, cpu_s: float, result, error) -> None:
        from delegate_opt.errors import DelegateOptError

        self.wall_ms.append(wall_s * 1e3)
        self.cpu_ms.append(cpu_s * 1e3)
        cls, problem = verdict(work, inp, result, error)
        if cls is not None:
            self.classes[cls] = self.classes.get(cls, 0) + 1
            self.generic += error is not None and not isinstance(
                error, (DelegateOptError, OpDeadline)
            )
        if problem is None:
            self.passed += 1
            return
        self.n_wrong += 1
        if len(self.wrong) < 20:
            self.wrong.append(f"{json.dumps(inp)}: {problem}")

    def summary(self) -> dict:
        n = len(self.wall_ms)
        failed = sum(self.classes.values())
        metrics = {
            "ops_per_s": (self.passed * 1e3 / sum(self.wall_ms), "1/s"),
            "op_ms_p50": (statistics.median(self.wall_ms), "ms"),
            "ops_per_cpu_s": (self.passed * 1e3 / sum(self.cpu_ms), "1/s"),
            "op_cpu_ms_p50": (statistics.median(self.cpu_ms), "ms"),
            "failed_share": (failed / n, "share"),
            "generic_error_share": (self.generic / n, "share"),
        }
        if n >= P90_MIN_OPS:
            metrics["op_ms_p90"] = (statistics.quantiles(self.wall_ms, n=10)[8], "ms")
        return {
            "attempted": n,
            "failed": failed,
            "passed": self.passed,
            "correct": self.n_wrong == 0,
            "failures_by_class": dict(sorted(self.classes.items())),
            "wrong_outputs": self.wrong,
            "timed_s": sum(self.wall_ms) / 1e3,
            "metrics": metrics,
        }


def run_pass(work, seconds: float, tracer=None) -> dict:
    """Closed loop over the inputs until the operations have taken ``seconds``.

    Each output is checked right after its operation, outside the timed
    interval and, in a traced pass, outside the spans.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    busy = 0.0
    i = 0
    while busy < seconds:
        inp = work.inputs[i % len(work.inputs)]
        root = tracer.begin_op(i) if tracer is not None else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        result, error = attempt(work.op, inp)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end_op(root)
        tally.add(work, inp, t1 - t0, c1 - c0, result, error)
        del result, error
        busy += t1 - t0
        i += 1
    return tally.summary()


def provenance(work, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": work.name,
        "seed": seed,
        "inputs": len(work.inputs),
        "inputs_sha256": work.digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "deadline_s": DEADLINE_S,
    }


def _units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "delegate_opt" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'delegate_opt'}", file=sys.stderr)
        return 2

    setup_here, work = timed_setup(args.workload, args.seed)
    setup = [setup_here] + [
        _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]

    untraced = run_pass(work, args.seconds)
    untraced["metrics"]["setup_s"] = (statistics.median(setup), "s")
    untraced["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    report = {
        "provenance": provenance(work, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "untraced": {**untraced, "metrics": _units(untraced["metrics"])},
    }
    final = untraced
    metrics = untraced["metrics"]
    correct = untraced["correct"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import delegate_opt
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(delegate_opt)
        try:
            traced = run_pass(work, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ops_per_s"] = (
            traced["metrics"]["ops_per_s"][0] - untraced["metrics"]["ops_per_s"][0],
            "1/s",
        )
        report["traced"] = {
            **traced,
            "metrics": _units(traced["metrics"]),
            "layers": _units(metrics),
        }
        tracer.save(OUT / f"{stem}-spans.npz")
        final = traced
        correct = correct and traced["correct"]

    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": _units({k: metrics[k] for k in _reported(args.trace, metrics)}),
    }))
    return 0


def _reported(trace: int, metrics: dict) -> list[str]:
    """Names listed for this mode in BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return names


if __name__ == "__main__":
    sys.exit(main())
