"""Online solver serving: admission, micro-batching, plan cache, fleets.

This package turns the batch reproducer into a request-driven service
model with one simulator, :mod:`repro.serve.cluster`.  A stream of
requests flows through

1. **admission control** — a bounded per-fleet queue that sheds with
   explicit backpressure outcomes instead of growing without bound,
2. **micro-batching** — requests for the same structure ride one batch
   onto a slot of the multi-tenant fleet, charged simulated device time
   by :func:`~repro.serve.profile.price_batch`,
3. the **fingerprint-keyed plan cache** — repeat traffic skips the
   Matrix Structure unit and Fine-Grained Reconfiguration analysis,
   the serving-side analogue of the per-instance structure caches.

Everything runs on a virtual clock, so a fixed request log produces a
byte-identical report (see ``docs/serving.md``).  ``repro serve`` /
``repro loadtest`` (:func:`run_service` / :func:`run_loadtest`) run one
fleet; ``repro loadtest --cluster`` (:func:`run_cluster_loadtest`) runs
a dynamically sized cluster of fleets with consistent-hash fingerprint
routing, a tiered plan cache and a deterministic autoscaler.
"""

from repro.serve.api import (
    Outcome,
    Priority,
    SolveRequest,
    SolveResponse,
    parse_priority,
)
from repro.serve.cache import (
    CacheEntry,
    PlanCache,
    plan_signature,
    structure_fingerprint,
)
from repro.serve.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ClusterReport,
    DeviceFaultEvent,
    FleetFaultEvent,
    ForcedScaleEvent,
    HashRing,
    TieredPlanCache,
    generate_trace,
    run_cluster,
    run_cluster_loadtest,
)
from repro.serve.loadgen import (
    TRAFFIC_MIXES,
    LoadSpec,
    generate_requests,
    read_request_log,
    write_request_log,
)
from repro.serve.profile import (
    SolveProfile,
    build_profile,
    build_profiles,
)
from repro.serve.service import (
    ServingReport,
    fleet_config,
    run_loadtest,
    run_service,
)

__all__ = [
    "TRAFFIC_MIXES",
    "AutoscalerPolicy",
    "CacheEntry",
    "ClusterConfig",
    "ClusterReport",
    "DeviceFaultEvent",
    "FleetFaultEvent",
    "ForcedScaleEvent",
    "HashRing",
    "LoadSpec",
    "Outcome",
    "PlanCache",
    "Priority",
    "ServingReport",
    "SolveProfile",
    "SolveRequest",
    "SolveResponse",
    "TieredPlanCache",
    "build_profile",
    "build_profiles",
    "fleet_config",
    "generate_requests",
    "generate_trace",
    "parse_priority",
    "plan_signature",
    "read_request_log",
    "run_cluster",
    "run_cluster_loadtest",
    "run_loadtest",
    "run_service",
    "structure_fingerprint",
    "write_request_log",
]
