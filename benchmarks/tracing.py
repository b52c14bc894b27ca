"""Spans around the calls into tauscreen's layer modules, and the per-layer
metrics computed from them.

The package's callers reach the layers through their module globals
(``tauscreen.cli``, ``tauscreen.evalbench`` and ``tauscreen.simgen`` import
the functions by name), so rebinding those names to timing wrappers traces
every call without touching the package. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("io", "rankcorr", "screening", "evalbench", "simgen", "linalg")
CALLERS = ("cli", "evalbench", "simgen")
WRITERS = ("evalbench.write_experiment_csv", "evalbench.write_sweep_csv",
           "evalbench.write_json_report")
KERNELS = ("rankcorr.kendall_matrix", "rankcorr.jackknife_matrix")

# Per-layer metrics of one op: name -> unit. Times are self times (a span's
# duration less its child spans on the same thread), summed over threads.
LAYER_METRICS = {
    "rankcorr.kendall_matrix.s": "s",
    "rankcorr.jackknife_matrix.s": "s",
    "rankcorr.sign_passes": "count",
    "rankcorr.sign_products_per_s": "1/s",
    "rankcorr.kendall_matrix.cpu_s": "s",
    "rankcorr.jackknife_matrix.cpu_s": "s",
    "rankcorr.sine_transform.s": "s",
    "rankcorr.self_s": "s",
    "io.read_data_csv.s": "s",
    "io.read_data_csv.cells_per_s": "1/s",
    "io.self_s": "s",
    "screening.threshold_matrix.s": "s",
    "screening.screen_edges.s": "s",
    "screening.screen_edges.calls": "count",
    "screening.edges": "count",
    "screening.connected_components.s": "s",
    "screening.write_edges_tsv.s": "s",
    "screening.write_partition_tsv.s": "s",
    "screening.self_s": "s",
    "evalbench.confusion.s": "s",
    "evalbench.confusion.calls": "count",
    "evalbench.writers.s": "s",
    "evalbench.pool_busy_frac": "frac",
    "evalbench.self_s": "s",
    "simgen.generate_ground_truth.s": "s",
    "simgen.sample.s": "s",
    "simgen.self_s": "s",
    "linalg.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _data_shape(args) -> dict:
    data = args[0]
    n, p = (data.n, data.p) if hasattr(data, "n") else data.shape
    return {"n": int(n), "p": int(p)}


# Counts recorded at the boundary where the work happens.
_ATTRS = {
    "rankcorr.kendall_matrix": lambda args, result: _data_shape(args),
    "rankcorr.jackknife_matrix": lambda args, result: _data_shape(args),
    "io.read_data_csv": lambda args, result: {"cells": result.n * result.p},
    "screening.screen_edges": lambda args, result: {"edges": len(result)},
}


class Tracer:
    """Collects spans: name, start, end, parent, thread id and op id.

    A span opened on a thread with no open span of its own, while an op's
    thread has one open (a pool worker under ``run_experiment``, say),
    records that span as ``pool_parent``: it ran on the parent's behalf.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self.op_id = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: int):
        """Mark the calling thread as the one running op ``op_id``."""
        self.op_id = op_id
        self._op_stack = self._stack()
        try:
            yield
        finally:
            self.op_id = None

    def wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            pool_parent = None
            if parent is None and stack is not self._op_stack and self._op_stack:
                pool_parent = self._op_stack[-1]
            stack.append(span_id)
            start, cpu0 = time.perf_counter(), time.process_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end,
                        "cpu_s": cpu1 - cpu0, "parent": parent, "pool_parent": pool_parent,
                        "thread": threading.get_ident(), "op": self.op_id}
                if attrs_of is not None and result is not None:
                    span.update(attrs_of(args, result))
                self.spans.append(span)

        return traced

    @contextmanager
    def instrumented(self):
        """Rebind the layer functions the callers import to traced wrappers.

        A caller's own functions are left alone, except in evalbench: its
        replicate workers reach ``confusion`` and ``estimator_matrix`` only
        through evalbench's own globals.
        """
        patched = []
        for caller in CALLERS:
            module = importlib.import_module(f"tauscreen.{caller}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                pkg, _, layer = fn.__module__.rpartition(".")
                if pkg != "tauscreen" or layer not in LAYERS:
                    continue
                if layer == caller and caller != "evalbench":
                    continue
                patched.append((module, attr, fn))
                setattr(module, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)


def op_metrics(spans: list[dict], op_wall: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (all ``LAYER_METRICS`` but
    ``trace.overhead_frac``, which needs untraced ops too)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    pool_owners = {s["pool_parent"] for s in spans if s["pool_parent"] is not None}
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    cpu = defaultdict(float)
    counts = defaultdict(int)
    op_root = pool_busy = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        cpu[s["name"]] += s["cpu_s"]
        for key in ("edges", "cells"):
            counts[key] += s.get(key, 0)
        if s["name"] in KERNELS:
            counts["sign_products"] += s.get("n", 0) ** 2 * s.get("p", 0) ** 2
        if s["parent"] is None:
            if s["pool_parent"] is None:
                op_root += dur
            else:
                pool_busy += dur
        if s["id"] in pool_owners:
            continue  # its self time is the wait for its workers
        self_s = dur - child[s["id"]]
        by_name[s["name"]] += self_s
        by_layer[s["name"].split(".")[0]] += self_s

    kernel_s = sum(by_name[k] for k in KERNELS)
    read_s = by_name["io.read_data_csv"]
    return {
        "rankcorr.kendall_matrix.s": by_name["rankcorr.kendall_matrix"],
        "rankcorr.jackknife_matrix.s": by_name["rankcorr.jackknife_matrix"],
        "rankcorr.sign_passes": sum(calls[k] for k in KERNELS),
        "rankcorr.sign_products_per_s": counts["sign_products"] / kernel_s if kernel_s else 0.0,
        "rankcorr.kendall_matrix.cpu_s": cpu["rankcorr.kendall_matrix"],
        "rankcorr.jackknife_matrix.cpu_s": cpu["rankcorr.jackknife_matrix"],
        "rankcorr.sine_transform.s": by_name["rankcorr.sine_transform"],
        "rankcorr.self_s": by_layer["rankcorr"],
        "io.read_data_csv.s": read_s,
        "io.read_data_csv.cells_per_s": counts["cells"] / read_s if read_s else 0.0,
        "io.self_s": by_layer["io"],
        "screening.threshold_matrix.s": by_name["screening.threshold_matrix"],
        "screening.screen_edges.s": by_name["screening.screen_edges"],
        "screening.screen_edges.calls": calls["screening.screen_edges"],
        "screening.edges": counts["edges"],
        "screening.connected_components.s": by_name["screening.connected_components"],
        "screening.write_edges_tsv.s": by_name["screening.write_edges_tsv"],
        "screening.write_partition_tsv.s": by_name["screening.write_partition_tsv"],
        "screening.self_s": by_layer["screening"],
        "evalbench.confusion.s": by_name["evalbench.confusion"],
        "evalbench.confusion.calls": calls["evalbench.confusion"],
        "evalbench.writers.s": sum(by_name[w] for w in WRITERS),
        "evalbench.pool_busy_frac": pool_busy / (threads * op_wall),
        "evalbench.self_s": by_layer["evalbench"],
        "simgen.generate_ground_truth.s": by_name["simgen.generate_ground_truth"],
        "simgen.sample.s": by_name["simgen.sample"],
        "simgen.self_s": by_layer["simgen"],
        "linalg.s": by_layer["linalg"],
        "cli.self_s": op_wall - op_root,
    }
