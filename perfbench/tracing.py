"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions of each ``delegate_opt`` module
and replaces every name binding of them (a function imported by name into
another module is patched there too), plus the methods of ``SeparatingPath``
and ``SenderDist``. Each wrapped call records one span (name, start, end,
parent, operation id) in flat arrays; the spans stay in memory until the run
ends. Calls made between operations (the output checks) record nothing. Self time is a span's duration minus the durations of its direct child
spans, so the self times of all spans under an operation's root span add up
to the operation's wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute). An attribute of the form "Class.method"
# is patched on the class; "Class.__init__" times construction.
LAYERS = (
    ("optimizer.optimize", "optimizer", "optimize"),
    ("surplus.sep_part", "surplus", "sep_part"),
    ("surplus.pool_part", "surplus", "pool_part"),
    ("surplus.pi_w", "surplus", "pi_w"),
    ("surplus.pi_s", "surplus", "pi_s"),
    ("quadrature.integrate", "quadrature", "integrate"),
    ("separating.SeparatingPath", "separating", "SeparatingPath.__init__"),
    ("separating.sigma_many", "separating", "SeparatingPath.sigma_many"),
    ("separating.tau_tilde", "separating", "SeparatingPath.tau_tilde"),
    ("thresholds.pooled_action", "thresholds", "pooled_action"),
    ("thresholds.solve_top", "thresholds", "solve_top"),
    ("thresholds.invert_cap", "thresholds", "invert_cap"),
    ("thresholds.invert_floor", "thresholds", "invert_floor"),
    ("thresholds.pooling_star", "thresholds", "pooling_star"),
    ("thresholds.brentq", "thresholds", "brentq"),
    ("distributions.pdf", "distributions", "SenderDist.pdf"),
    ("distributions.partial_moment", "distributions", "SenderDist.partial_moment"),
    ("distributions.trunc_mean", "distributions", "SenderDist.trunc_mean"),
    ("distributions.cdf", "distributions", "SenderDist.cdf"),
    ("distributions.quantile", "distributions", "SenderDist.quantile"),
    ("harness.run_config", "harness", "run_config"),
)

# Inner work counts gathered by the wrappers.
COUNTERS = (
    "optimizer.grid_evals",
    "optimizer.refine_evals",
    "quadrature.integrate.panels",
    "separating.sigma_many.nodes",
    "thresholds.brentq.evals",
    "distributions.pdf.points",
)

# The benchmark's own root span around each operation; its self time is the
# part of the operation that no wrapped layer covers.
OP_SPAN = "op"


def _counted(fn, counter: list):
    """``fn`` with every call added to ``counter[0]``."""

    def counting(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)

    return counting


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN] + [layer for layer, _, _ in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.op_id = array("q")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counters = {name: 0 for name in COUNTERS}
        self.integrate_one_panel = 0
        self._stack: list[int] = []
        self._op = -1
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start_ns)
        self.name_id.append(nid)
        self.op_id.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(0)
        # All five arrays grow before the span goes on the stack, so a
        # deadline signal between two of these lines cannot misalign them.
        self.start_ns.append(time.perf_counter_ns())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        # A deadline signal can land between a span's open and its close;
        # popping down to the span keeps the parent links consistent.
        while self._stack and self._stack.pop() != idx:
            pass

    def begin_op(self, op: int) -> int:
        self._op = op
        self._stack.clear()
        self._active = True
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)
        now = self.end_ns[idx]
        # Spans left open by an interrupted operation end with it.
        for j in range(idx + 1, len(self.end_ns)):
            if self.end_ns[j] == 0:
                self.end_ns[j] = now
        self._stack.clear()
        self._active = False

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        extra = {
            "optimizer.optimize": self._count_optimize,
            "quadrature.integrate": self._count_integrate,
            "thresholds.brentq": self._count_brentq,
            "separating.sigma_many": self._count_sigma_many,
            "distributions.pdf": self._count_pdf,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:  # between operations, e.g. in a check
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(fn, args, kwargs)
            finally:
                self._close(idx)

        return traced

    def _count_optimize(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counters["optimizer.grid_evals"] += out.diagnostics["n_grid_evals"]
        self.counters["optimizer.refine_evals"] += out.diagnostics["refine_evals"]
        return out

    def _count_integrate(self, fn, args, kwargs):
        panels = [0]
        try:
            return fn(_counted(args[0], panels), *args[1:], **kwargs)
        finally:
            self.counters["quadrature.integrate.panels"] += panels[0]
            self.integrate_one_panel += panels[0] == 1

    def _count_brentq(self, fn, args, kwargs):
        evals = [0]
        try:
            return fn(_counted(args[0], evals), *args[1:], **kwargs)
        finally:
            self.counters["thresholds.brentq.evals"] += evals[0]

    def _count_sigma_many(self, fn, args, kwargs):
        self.counters["separating.sigma_many.nodes"] += int(np.size(args[1]))
        return fn(*args, **kwargs)

    def _count_pdf(self, fn, args, kwargs):
        self.counters["distributions.pdf.points"] += int(np.size(args[1]))
        return fn(*args, **kwargs)

    def install(self, package) -> None:
        """Wrap every layer and patch every binding of it under ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for name, module_name, attr in LAYERS:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, binding, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, wall_s and self_s per span name, plus the inner counters."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        wall = np.bincount(a["name_id"], weights=dur, minlength=n)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.wall_s"] = (float(wall[i]), "s")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        n_int = int(calls[self._ids["quadrature.integrate"]])
        out["quadrature.integrate.one_panel_share"] = (
            self.integrate_one_panel / n_int if n_int else 0.0, "share"
        )
        out["trace.spans"] = (len(dur), "count")
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
