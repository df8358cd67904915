"""Metric names, units and directions; ``BENCHMARK.json`` mirrors this.

End-to-end metrics come from untraced passes; per-layer metrics from
traced passes.  ``EXACT_LAYER_METRICS`` are counts and simulated numbers
that repeat exactly for a given seed: every pass of a run must agree on
them, and a host-only speed-up must leave them identical.
"""

from __future__ import annotations

from tracer import LAYERS

# name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "sim_requests_per_s": ("1/s", "higher", 0.25),
    "true_residual_max": ("ratio", "lower", 0.1),
}

# Exact per-pass outcomes; also the result's attempted/failed.  Not
# end-to-end metrics because ops_failed is 0 on most workloads.
_OUTCOMES: list[tuple[str, str, str]] = [
    ("ops", "count", "higher"),
    ("ops_failed", "count", "lower"),
]

# Units sim_ms / sim_s mark virtual-clock times from the device and serving
# models: exact for a seed, unlike host times.
_EXTRAS: list[tuple[str, str, str]] = [
    ("datasets.rows_per_s", "1/s", "higher"),
    ("sparse.io.nnz_per_s", "1/s", "higher"),
    ("sparse.matvec.nnz_per_s", "1/s", "higher"),
    ("sparse.matvec.bytes_computed", "B", "lower"),
    ("fine_grained.reconfig_events", "count", "lower"),
    ("solvers.attempts", "count", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.us_per_iter", "us", "lower"),
    ("solvers.converged_ratio", "ratio", "higher"),
    ("solvers.true_residual_violations", "count", "lower"),
    ("fpga.modeled_compute_ms", "sim_ms", "lower"),
    ("fpga.modeled_reconfig_ms", "sim_ms", "lower"),
    ("serve.loadgen.us_per_request", "us", "lower"),
    ("serve.profile.s", "s", "lower"),
    ("serve.profile.sources", "count", "lower"),
    ("serve.fleet.us_per_request", "us", "lower"),
    ("serve.fleet.batches", "count", "lower"),
    ("serve.fleet.cache_hit_rate", "ratio", "higher"),
    ("serve.fleet.config_loads", "count", "lower"),
    ("serve.fleet.modeled_p99_ms", "sim_ms", "lower"),
    ("serve.cluster.us_per_request", "us", "lower"),
    ("serve.cluster.batches", "count", "lower"),
    ("serve.cluster.mean_batch", "count", "higher"),
    ("serve.cluster.local_hit_rate", "ratio", "higher"),
    ("serve.cluster.config_loads", "count", "lower"),
    ("serve.cluster.shed_rate", "ratio", "lower"),
    ("serve.cluster.fleets_peak", "count", "lower"),
    ("serve.cluster.modeled_p99_ms", "sim_ms", "lower"),
    ("serve.cluster.device_seconds", "sim_s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _name, _unit, _better in _OUTCOMES + _EXTRAS:
    PER_LAYER[_name] = (_unit, _better)

EXACT_LAYER_METRICS = frozenset(
    [f"{layer}.calls" for layer in LAYERS]
    + [name for name, _, _ in _OUTCOMES]
    + [
        "sparse.matvec.bytes_computed",
        "fine_grained.reconfig_events",
        "solvers.attempts",
        "solvers.iterations",
        "solvers.converged_ratio",
        "solvers.true_residual_violations",
        "fpga.modeled_compute_ms",
        "fpga.modeled_reconfig_ms",
        "serve.profile.sources",
    ]
    + [name for name in PER_LAYER if name.startswith(
        ("serve.fleet.", "serve.cluster.")
    ) and not name.endswith((".calls", ".self_s", ".us_per_request"))]
)

COVERAGE_FLOOR = 0.95
"""Traced self times must cover at least this share of the pass's wall."""
