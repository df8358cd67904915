"""Layer-boundary tracer for the benchmark's traced runs.

Wraps the public function at each layer boundary of the program from the
outside, records one span per call (layer, id, parent id, start, end) and
accumulates self time: a span's duration minus the time covered by the
spans it directly caused.  The program itself is not modified and its own
``repro.telemetry`` spans are not used (they are flat).

A wrapper replaces the attribute the caller resolves at call time: class
attributes for methods, and every binding of a module-level function in
the loaded ``repro`` modules (``build_profiles`` is bound in both
``repro.serve.service`` and ``repro.serve.cluster.service``;
``generate_trace`` and ``read_matrix_market`` are imported at call time
from their defining modules).  Spans are kept in memory and written out
once, after the timed region.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

Extra = Callable[[tuple, Any, dict], None]
"""``extra(args, result, counters)`` adds exact counts for one call."""


def _rows(args: tuple, result: Any, counters: dict) -> None:
    # A CSRMatrix from a builder, or a Problem from manufacture_problem.
    counters["rows"] += result.n_rows if hasattr(result, "n_rows") \
        else result.n


def _io(args: tuple, result: Any, counters: dict) -> None:
    counters["nnz"] += int(result.nnz)


def _matvec(args: tuple, result: Any, counters: dict) -> None:
    matrix, x = args[0], args[1]
    counters["nnz"] += int(matrix.nnz)
    # Computed from array sizes (one CSR pass reading every stored value,
    # column index and row pointer, the input and the output vector); the
    # cache behaviour of the real kernel is not measured.
    counters["bytes"] += (
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        + x.nbytes + result.nbytes
    )


def _plan(args: tuple, result: Any, counters: dict) -> None:
    counters["reconfig_events"] += int(result.reconfiguration_count)


def _solve(args: tuple, result: Any, counters: dict) -> None:
    counters["iterations"] += int(result.iterations)
    counters["converged"] += int(result.converged)


def _latency(args: tuple, result: Any, counters: dict) -> None:
    counters["compute_ms"] += result.compute_seconds * 1e3
    counters["reconfig_ms"] += sum(
        a.reconfig_seconds for a in result.attempts
    ) * 1e3


def _count_len(args: tuple, result: Any, counters: dict) -> None:
    counters["items"] += len(result)


def _fleet_requests(args: tuple, result: Any, counters: dict) -> None:
    counters["items"] += len(result.requests)


def _cluster_requests(args: tuple, result: Any, counters: dict) -> None:
    counters["items"] += int(result.generated)


def _solver_targets() -> list[tuple[str, str]]:
    from repro.solvers import SOLVER_REGISTRY

    return sorted(
        (cls.__module__, f"{cls.__name__}.solve")
        for cls in SOLVER_REGISTRY.values()
        if "solve" in vars(cls)
    )


# layer name -> (boundary targets as (module, attribute path), extra counts)
LAYERS: dict[str, tuple[Callable[[], list[tuple[str, str]]], Extra | None]] = {
    "datasets": (lambda: [
        ("repro.datasets.suite", "load_matrix"),
        ("repro.datasets.problem", "manufacture_problem"),
        ("repro.datasets.pde", "poisson_2d_matrix"),
        ("repro.datasets.pde", "poisson_3d_matrix"),
        ("repro.datasets.pde", "convection_diffusion_2d_matrix"),
    ], _rows),
    "sparse.canonical": (
        lambda: [("repro.sparse.coo", "COOMatrix.canonical")], None),
    "sparse.io": (
        lambda: [("repro.sparse.io", "read_matrix_market")], _io),
    "sparse.matvec": (
        lambda: [("repro.sparse.csr", "CSRMatrix.matvec")], _matvec),
    "matrix_structure": (lambda: [(
        "repro.core.matrix_structure", "MatrixStructureUnit.select_solver",
    )], None),
    "fine_grained": (lambda: [(
        "repro.core.finegrained", "FineGrainedReconfigurationUnit.plan",
    )], _plan),
    "solvers": (_solver_targets, _solve),
    "fpga": (lambda: [
        ("repro.fpga.cost_model", "PerformanceModel.acamar_latency"),
    ], _latency),
    "campaign": (lambda: [("repro.campaign", "run_campaign")], None),
    "serve.loadgen": (
        lambda: [("repro.serve.loadgen", "generate_requests")], _count_len),
    "serve.profile": (
        lambda: [("repro.serve.service", "build_profiles")], _count_len),
    "serve.fleet": (
        lambda: [("repro.serve.service", "run_service")], _fleet_requests),
    "serve.cluster.trace": (
        lambda: [("repro.serve.cluster.trace", "generate_trace")], None),
    "serve.cluster": (lambda: [
        ("repro.serve.cluster.service", "run_cluster"),
    ], _cluster_requests),
}


class Tracer:
    """Span recorder; records only while :attr:`active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.layers = list(LAYERS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.inclusive_s = [0.0] * len(self.layers)
        self.counters: list[dict[str, float]] = [
            defaultdict(int) for _ in self.layers
        ]
        # Closed spans: (layer index, span id, parent id or -1, start, end).
        self.spans: list[tuple[int, int, int, float, float]] = []
        # Open spans: [span id, start, time covered by direct children].
        self._stack: list[list] = []
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary (imports the layers' modules)."""
        for index, name in enumerate(self.layers):
            targets, extra = LAYERS[name]
            for module_name, path in targets():
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(index, original, extra)
                if owner_name:
                    setattr(owner, attr, wrapper)
                else:
                    _rebind_everywhere(original, wrapper)

    def _wrap(self, layer: int, fn: Callable, extra: Extra | None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - frame[2]
                tracer.inclusive_s[layer] += duration
                tracer.spans.append((layer, span_id, parent, frame[1], end))
            if extra is not None:
                extra(args, result, tracer.counters[layer])
            return result

        return traced

    # -- results ------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for layer, span_id, parent, start, end in self.spans:
                fh.write(json.dumps({
                    "layer": self.layers[layer], "id": span_id,
                    "parent": parent, "start": start, "end": end,
                }) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass (see ``metrics.py``)."""
        out: dict[str, float] = {}
        by_name = {name: i for i, name in enumerate(self.layers)}

        def self_time(name: str) -> float:
            return self.self_s[by_name[name]]

        def count(name: str, key: str) -> float:
            return self.counters[by_name[name]][key]

        for i, name in enumerate(self.layers):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out["datasets.rows_per_s"] = _rate(
            count("datasets", "rows"), self_time("datasets"))
        out["sparse.io.nnz_per_s"] = _rate(
            count("sparse.io", "nnz"), self_time("sparse.io"))
        out["sparse.matvec.nnz_per_s"] = _rate(
            count("sparse.matvec", "nnz"), self_time("sparse.matvec"))
        out["sparse.matvec.bytes_computed"] = count("sparse.matvec", "bytes")
        out["fine_grained.reconfig_events"] = count(
            "fine_grained", "reconfig_events")
        solves = self.calls[by_name["solvers"]]
        iterations = count("solvers", "iterations")
        out["solvers.attempts"] = solves
        out["solvers.iterations"] = iterations
        out["solvers.us_per_iter"] = 1e6 * _rate(
            self_time("solvers"), iterations)
        out["solvers.converged_ratio"] = _rate(
            count("solvers", "converged"), solves)
        out["fpga.modeled_compute_ms"] = count("fpga", "compute_ms")
        out["fpga.modeled_reconfig_ms"] = count("fpga", "reconfig_ms")
        for name in ("serve.loadgen", "serve.fleet", "serve.cluster"):
            out[f"{name}.us_per_request"] = 1e6 * _rate(
                self_time(name), count(name, "items"))
        out["serve.profile.s"] = self.inclusive_s[by_name["serve.profile"]]
        out["serve.profile.sources"] = count("serve.profile", "items")
        out["trace.coverage"] = _rate(sum(self.self_s), wall_s)
        return out


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _rebind_everywhere(original: Callable, wrapper: Callable) -> None:
    """Replace every module-level binding of ``original`` in ``repro``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
