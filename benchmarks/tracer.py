"""Outside-in tracer: wraps the public functions of the n2sr modules.

The package is not changed. `Tracer.install` replaces each traced function in
every `n2sr.*` namespace that binds it (`cli` and `validation` import
functions by name, so patching the defining module alone would miss those
calls) and `Tracer.uninstall` puts the originals back. Each call records a
span (name, start, end, parent span, operation id) in memory; self times and
counts are derived from the spans once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute) -> layer name. BlochTrajectory.write_csv is a method,
# patched on the class.
TRACED = {
    ("n2sr.cli", "main"): "cli.main",
    ("n2sr.config", "load_config"): "config.load_config",
    ("n2sr.bloch", "integrate_bloch_rwa"): "bloch.integrate_bloch_rwa",
    ("n2sr.bloch", "bloch_angle"): "bloch.bloch_angle",
    ("n2sr.bloch", "BlochTrajectory.write_csv"): "bloch.write_csv",
    ("n2sr.superradiance", "write_profile_csv"): "superradiance.write_profile_csv",
    ("n2sr.superradiance", "integrate_pendulum"): "superradiance.integrate_pendulum",
    ("n2sr.pressure", "pressure_scan"): "pressure.pressure_scan",
    ("n2sr.pressure", "write_scan_csv"): "pressure.write_scan_csv",
    ("n2sr.profiles", "read_trace_csv"): "profiles.read_trace_csv",
    ("n2sr.profiles", "fit_sech2"): "profiles.fit_sech2",
    ("n2sr.profiles", "summarize_by_pressure"): "profiles.summarize_by_pressure",
    ("n2sr.profiles", "write_summary_csv"): "profiles.write_summary_csv",
    ("n2sr.validation", "run_validation_checks"): "validation.run_validation_checks",
}

# Writers whose output file is counted (rows) and the argument holding the path.
WRITERS = {
    "bloch.write_csv": 1,  # (self, path)
    "superradiance.write_profile_csv": 0,
    "pressure.write_scan_csv": 0,
    "profiles.write_summary_csv": 0,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    counts: dict = field(default_factory=dict)


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._deferred: list[tuple[Span, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        for (modname, attr), name in TRACED.items():
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth)))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("n2sr") and getattr(other, attr, None) is original:
                    self._patch(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self._count(span, args, result)
            return result

        return traced

    # -- counts from returned objects and files -------------------------------
    def _count(self, span: Span, args, result) -> None:
        name = span.name
        if name in WRITERS:
            self._deferred.append((span, "rows", args[WRITERS[name]]))
        elif name == "bloch.integrate_bloch_rwa":
            span.counts["steps"] = len(result.t) - 1
        elif name == "superradiance.integrate_pendulum":
            span.counts["steps"] = len(result[0]) - 1
        elif name == "pressure.pressure_scan":
            span.counts["pressures"] = len(result)
        elif name == "profiles.read_trace_csv":
            span.counts["rows"] = len(result.t)
            self._deferred.append((span, "bytes", args[0]))
        elif name == "profiles.fit_sech2":
            span.counts["converged"] = int(result.converged)

    def finish_op(self) -> None:
        """Count rows and bytes of the files the operation wrote or read.

        Runs after the operation returns, so file reads stay out of its spans.
        """
        for span, key, path in self._deferred:
            span.counts[key] = os.path.getsize(path) if key == "bytes" else _count_lines(path) - 1
        self._deferred.clear()

    # -- derived per-layer numbers ----------------------------------------------
    def per_op(self) -> dict[int, dict[str, float]]:
        """op -> {'<layer>.self_s', '<layer>.calls', '<layer>.<count>'} summed over its spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        ops: dict[int, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            acc = ops.setdefault(span.op, {})
            for key, value in (
                ("self_s", span.end - span.start - children),
                ("calls", 1),
                *span.counts.items(),
            ):
                acc[f"{span.name}.{key}"] = acc.get(f"{span.name}.{key}", 0) + value
        return ops


def layer_metrics(tracer: Tracer, op_ids) -> dict[str, float]:
    """Median over traced operations of each per-operation sum.

    A layer that never runs in an operation contributes 0 for it, so the
    median stays per operation.
    """
    per_op = tracer.per_op()
    keys = sorted({key for acc in per_op.values() for key in acc})
    return {
        key: statistics.median(per_op.get(op, {}).get(key, 0) for op in op_ids)
        for key in keys
    }


def converged_ratio(tracer: Tracer) -> tuple[int, int]:
    calls = [s for s in tracer.spans if s.name == "profiles.fit_sech2"]
    return sum(s.counts.get("converged", 0) for s in calls), len(calls)


def count_output(paths, stdout: str) -> tuple[int, int]:
    """Lines and bytes of the given files plus the captured stdout."""
    rows = stdout.count("\n")
    size = len(stdout.encode())
    for path in paths:
        rows += _count_lines(path)
        size += Path(path).stat().st_size
    return rows, size
