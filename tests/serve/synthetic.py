"""Synthetic profiles and hand-built traces for simulator tests.

Every device-second these runs produce is a closed-form sum of profile
scalars, so no real solve runs.
"""

import numpy as np

from repro.serve.api import Priority, SolveRequest
from repro.serve.cluster.service import OUTCOMES, run_cluster
from repro.serve.cluster.trace import RequestTrace
from repro.serve.profile import SolveProfile
from repro.serve.service import ServingReport, fleet_config

SWAP_S = 5e-3


def synthetic(
    label,
    attempts=(2e-4, 1e-4),
    *,
    fingerprint=None,
    signature=None,
    swap=SWAP_S,
    gpu_warm=0.0,
    gpu_transfer=0.0,
):
    return SolveProfile(
        label=label,
        fingerprint=fingerprint or f"fp-{label}",
        plan_signature=signature or f"sig-{label}",
        n=100,
        nnz=500,
        converged=True,
        solver_sequence=("cg", "bicgstab")[: len(attempts)],
        iterations=10,
        attempt_compute_s=tuple(attempts),
        solver_swap_s=swap,
        analysis_s=1e-3,
        gpu_warm_service_s=gpu_warm,
        gpu_transfer_s=gpu_transfer,
    )


def requests_of(rows):
    """``rows`` are ``(arrival_s, source[, priority[, deadline_s]])``."""
    requests = []
    for request_id, row in enumerate(rows):
        arrival, source, *rest = row
        requests.append(
            SolveRequest(
                request_id=request_id,
                source=source,
                arrival_s=arrival,
                priority=rest[0] if rest else Priority.BATCH,
                deadline_s=rest[1] if len(rest) > 1 else None,
            )
        )
    return requests


def trace_of(rows, sources=None, duration_s=None):
    requests = requests_of(rows)
    sources = sources or tuple(dict.fromkeys(r.source for r in requests))
    meta = {} if duration_s is None else {"duration_s": duration_s}
    return RequestTrace(
        sources=tuple(sources),
        arrival_s=np.array([r.arrival_s for r in requests], dtype=float),
        source_idx=np.array(
            [sources.index(r.source) for r in requests], dtype=np.int16
        ),
        priority=np.array([int(r.priority) for r in requests], dtype=np.int8),
        deadline_s=np.array(
            [np.inf if r.deadline_s is None else r.deadline_s
             for r in requests]
        ),
        meta=meta,
    )


def serve(rows, profiles, **config_fields):
    """Serve ``rows`` on one fleet with injected ``profiles``."""
    trace = trace_of(rows)
    cluster = run_cluster(trace, fleet_config(**config_fields), profiles=profiles)
    return ServingReport(
        cluster=cluster,
        requests=requests_of(rows),
        trace=trace,
        profiles=profiles,
    )


def outcomes(report):
    """Outcome name per trace row."""
    return [OUTCOMES[code] for code in report.cluster.outcomes]


def by_id(report):
    return {r.request_id: r for r in report.responses}
