"""In-memory spans and counters at planelift's layer boundaries.

The traced run replaces public planelift names with timing wrappers, at
every place the name is looked up: a function imported by name into
another module (``layers`` imports ``wigner_d``, ``cli`` imports
``induction_forward``) is replaced there too, and methods are replaced on
their class. Nothing under ``src/`` changes. Spans stay in memory and are
written out once, when the run ends.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``unit`` is ``"setup"`` or the index
of the timed operation it belongs to. Each timed operation is itself a root
span named ``"op"``.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it is expected to move). ``.calls`` is calls per timed operation; ``.s``
# and ``.self_s`` are seconds per call over the traced set-up and
# operations; ``.mb`` and ``.cells`` are per call too.
PER_LAYER = [
    ("kernels.solve_so2_basis.calls", "count", "lower", "op_ms_p50 on kernel_solve"),
    ("kernels.solve_so2_basis.s", "s", "lower", "op_ms_p50 on kernel_solve"),
    ("kernels.solve_distinct_ratio", "ratio", "higher",
     "op_ms_p50 on kernel_solve (distinct (in_rep, out_rep, m_max, radial) solves / all solves)"),
    ("kernels.build_induction_kernel.s", "s", "lower",
     "op_ms_p50 on kernel_solve and cli_pose; setup_s on lift_stream and pose_readout"),
    ("kernels.build_so3_kernel.s", "s", "lower", "op_ms_p50 on kernel_solve"),
    ("kernels.build_volume_kernel.s", "s", "lower", "op_ms_p50 on kernel_solve"),
    ("kernels.build_r3s2_kernel.s", "s", "lower", "op_ms_p50 on kernel_solve"),
    ("kernels.evaluate_all.calls", "count", "lower",
     "op_ms_p50 on lift_stream; about a quarter of op_ms_p50 on pose_readout"),
    ("kernels.evaluate_all.s", "s", "lower",
     "op_ms_p50 on lift_stream; about a quarter of op_ms_p50 on pose_readout"),
    ("kernels.evaluate_all.mb", "MB", "lower", "peak_rss_mb on lift_stream"),
    ("kernels.coefficient_blocks.s", "s", "lower", "op_ms_p50 on lift_stream"),
    ("layers.induction_forward.calls", "count", "lower", "op_ms_p50 on lift_stream"),
    ("layers.induction_forward.self_s", "s", "lower", "op_ms_p50 on lift_stream"),
    ("layers.spherical_nonlinearity.s", "s", "lower", "op_ms_p50 on lift_stream"),
    ("so2_so3.SphericalHarmonicBasis.evaluate.calls", "count", "lower",
     "op_ms_p50 on lift_stream"),
    ("so2_so3.SphericalHarmonicBasis.evaluate.s", "s", "lower", "op_ms_p50 on lift_stream"),
    ("so2_so3.sphere_quadrature.s", "s", "lower", "op_ms_p50 on lift_stream"),
    ("layers.AnalyticField.sample.s", "s", "lower",
     "op_ms_p50 on pose_readout and cli_pose, by a small share"),
    ("layers.SO3Signal.evaluate.s", "s", "lower", "op_ms_p50 on pose_readout and cli_pose"),
    ("layers.SO3Signal.evaluate.cells", "count", "higher",
     "op_ms_p50 on pose_readout and cli_pose (readout grid size, per call)"),
    ("so2_so3.wigner_d.calls", "count", "lower", "op_ms_p50 on pose_readout and cli_pose"),
    ("so2_so3.wigner_d.s", "s", "lower", "op_ms_p50 on pose_readout and cli_pose"),
    ("layers.sphere_to_so3_correlation.s", "s", "lower",
     "op_ms_p50 on pose_readout, by a small share"),
    ("cli.import_s", "s", "lower", "setup_s and op_ms_p50 on cli_pose"),
    ("trace.covered_frac", "ratio", "higher", "none: share of op wall time layer spans cover"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced op_ms_p50 over untraced op_ms_p50, minus one"),
]


def _count_mb(tracer: "Tracer", args, result) -> None:
    tracer.counters["kernels.evaluate_all.mb"] += result.nbytes / 1e6


def _count_cells(tracer: "Tracer", args, result) -> None:
    tracer.counters["layers.SO3Signal.evaluate.cells"] += len(args[1])


def _count_solve(tracer: "Tracer", args, result) -> None:
    key = (result.in_rep, result.out_rep, result.m_max, result.radial)
    tracer.solve_keys.setdefault(tracer.unit, []).append(key)


# (module, name in it, span name, counter hook); names that are classes
# attributes are given as "Class.method".
TARGETS = [
    ("planelift.kernels", "solve_so2_basis", "kernels.solve_so2_basis", _count_solve),
    ("planelift.kernels", "build_induction_kernel", "kernels.build_induction_kernel", None),
    ("planelift.kernels", "build_so3_kernel", "kernels.build_so3_kernel", None),
    ("planelift.kernels", "build_volume_kernel", "kernels.build_volume_kernel", None),
    ("planelift.kernels", "build_r3s2_kernel", "kernels.build_r3s2_kernel", None),
    ("planelift.kernels", "SteerableKernelBasis.evaluate_all", "kernels.evaluate_all", _count_mb),
    ("planelift.kernels", "InductionKernel.coefficient_blocks", "kernels.coefficient_blocks", None),
    ("planelift.layers", "induction_forward", "layers.induction_forward", None),
    ("planelift.layers", "spherical_nonlinearity", "layers.spherical_nonlinearity", None),
    ("planelift.layers", "sphere_to_so3_correlation", "layers.sphere_to_so3_correlation", None),
    ("planelift.layers", "AnalyticField.sample", "layers.AnalyticField.sample", None),
    ("planelift.layers", "SO3Signal.evaluate", "layers.SO3Signal.evaluate", _count_cells),
    ("planelift.so2_so3", "SphericalHarmonicBasis.evaluate",
     "so2_so3.SphericalHarmonicBasis.evaluate", None),
    ("planelift.so2_so3", "sphere_quadrature", "so2_so3.sphere_quadrature", None),
    ("planelift.so2_so3", "wigner_d", "so2_so3.wigner_d", None),
]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit: str | int = "setup"
        self.counters: dict[str, float] = {
            "kernels.evaluate_all.mb": 0.0,
            "layers.SO3Signal.evaluate.cells": 0.0,
            "cli.import_s": 0.0,
            "cli.imports": 0.0,
        }
        self.solve_keys: dict[str | int, list] = {}
        self.merged: list[dict] = []  # stats of traced child processes

    def wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install a wrapper for every target; restore the originals on exit."""
        restore = []
        try:
            for modname, attr, name, hook in TARGETS:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    restore.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(original, name, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(original, name, hook)
                for mname, mod in list(sys.modules.items()):
                    if mname != "planelift" and not mname.startswith("planelift."):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    @contextmanager
    def op(self, index: int):
        """Root span of one timed operation."""
        self.unit = index
        rec = ["op", perf_counter(), 0.0, -1, index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
            self.unit = "setup"

    def stats(self) -> dict:
        """Sums over this tracer's spans plus any merged child stats."""
        child_s = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_s[rec[3]] += rec[2] - rec[1]
        out = empty_stats()
        for rec, covered in zip(self.spans, child_s):
            name, dur = rec[0], rec[2] - rec[1]
            if name == "op":
                out["ops"] += 1
                out["op_s"] += dur
                out["covered_s"] += covered
                continue
            _add(out["calls"], name, 1)
            _add(out["total_s"], name, dur)
            _add(out["self_s"], name, dur - covered)
            if isinstance(rec[4], int):
                _add(out["calls_in_ops"], name, 1)
        for keys in self.solve_keys.values():
            out["solves"] += len(keys)
            out["distinct_solves"] += len(set(keys))
        for name, value in self.counters.items():
            _add(out["counters"], name, value)
        for child in self.merged:
            merge_stats(out, child)
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _add(table: dict, key: str, value: float) -> None:
    table[key] = table.get(key, 0) + value


def empty_stats() -> dict:
    return {"calls": {}, "calls_in_ops": {}, "total_s": {}, "self_s": {}, "counters": {},
            "solves": 0, "distinct_solves": 0, "ops": 0, "op_s": 0.0, "covered_s": 0.0}


def merge_stats(into: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, dict):
            for name, v in value.items():
                _add(into[key], name, v)
        else:
            into[key] += value


def layer_metrics(stats: dict, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric in ``PER_LAYER`` from merged stats."""
    ops = max(stats["ops"], 1)
    calls, counters = stats["calls"], stats["counters"]

    def per_call(total: float, base: str) -> float:
        n = calls.get(base, 0)
        return total / n if n else 0.0

    out: dict[str, float] = {}
    for metric, _, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = stats["calls_in_ops"].get(base, 0) / ops
        elif kind == "s":
            out[metric] = per_call(stats["total_s"].get(base, 0.0), base)
        elif kind == "self_s":
            out[metric] = per_call(stats["self_s"].get(base, 0.0), base)
        elif kind in ("mb", "cells"):
            out[metric] = per_call(counters.get(metric, 0.0), base)
    imports = counters.get("cli.imports", 0)
    out["cli.import_s"] = counters.get("cli.import_s", 0.0) / imports if imports else 0.0
    # no solve at all wastes none
    out["kernels.solve_distinct_ratio"] = (stats["distinct_solves"] / stats["solves"]
                                           if stats["solves"] else 1.0)
    out["trace.covered_frac"] = stats["covered_s"] / stats["op_s"] if stats["op_s"] else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
