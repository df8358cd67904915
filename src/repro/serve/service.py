"""Single-fleet serving: one fleet of the cluster simulator.

:func:`run_service` serves a request log and :func:`run_loadtest`
synthetic traffic on **one** fleet.  The log becomes one
:class:`~repro.serve.cluster.trace.RequestTrace` (row ``i`` is the
``i``-th request in arrival order) and runs through
:func:`~repro.serve.cluster.service.run_cluster` with one fleet,
autoscaling off and :data:`FLEET_EPOCH_S` epochs, so there is one
serving model: a bounded admission queue, epoch-swept deadline expiry,
fill-window micro-batching (an interactive head departs at once),
:func:`~repro.serve.profile.price_batch` charges and the plan cache.
:class:`ServingReport` is the single-fleet JSON view of the resulting
:class:`~repro.serve.cluster.service.ClusterReport`, plus a per-request
response log built from the cluster's outcome record.

Everything runs on the virtual clock, so a fixed request log yields a
byte-identical report on every run, on every machine.  Real numerics
still happen: every unique source is profiled once with a true Acamar
solve (:func:`build_profiles`, parallel when ``workers > 1``), and its
decision-loop outcome is what the simulator replays.  Wall-clock
quantities (profiling spans) live only in the separate telemetry
export, never in the deterministic report.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.placement import FPGA, GPU
from repro.serve.api import Outcome, SolveRequest, SolveResponse
from repro.serve.cluster.service import (
    OUTCOMES,
    ClusterConfig,
    ClusterReport,
    run_cluster,
)
from repro.serve.cluster.trace import RequestTrace
from repro.serve.profile import SolveProfile, build_profiles
from repro.serve.stats import format_latency_ms
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover — type name only, avoids eager import
    from repro.serve.loadgen import LoadSpec

SERVING_SCHEMA_VERSION = 1

FLEET_EPOCH_S = 0.05
"""Epoch length of the one-fleet path: arrivals are admitted and
deadlines swept every 50 ms of virtual time.  A fleet admits an epoch's
arrivals against its queue room at the epoch start, so the epoch must be
short next to ``queue_capacity / rate``: 1 s epochs shed 238 of the
canonical 558-request loadtest at queue 64; 50 ms epochs shed none."""

FLEET_DEFAULTS: dict[str, Any] = {
    "slots_per_fleet": 4,
    "max_batch": 8,
    "batch_fill_ms": 1.0,
    "queue_capacity": 64,
}
"""Single-fleet defaults (a small deployment) over :class:`ClusterConfig`'s."""

_RESPONSE = {
    "completed": (Outcome.COMPLETED, ""),
    "shed_overflow": (Outcome.SHED, "queue_full"),
    "shed_drain_limit": (Outcome.SHED, "drain limit reached"),
    "expired": (Outcome.EXPIRED, "deadline expired in queue"),
    "failed": (Outcome.FAILED, ""),  # detail: the profiling error
}


def _epoch_s(batch_fill_ms: float) -> float:
    """:data:`FLEET_EPOCH_S`, stretched to the first multiple of it that
    is longer than the fill window (the cluster requires fill < epoch)."""
    fill_s = batch_fill_ms * 1e-3
    if not math.isfinite(fill_s) or fill_s < FLEET_EPOCH_S:
        return FLEET_EPOCH_S  # ClusterConfig rejects a non-finite fill
    epochs = math.floor(fill_s / FLEET_EPOCH_S) + 1
    epoch = round(epochs * FLEET_EPOCH_S, 9)
    if epoch <= fill_s:  # the quotient rounded down
        epoch = round((epochs + 1) * FLEET_EPOCH_S, 9)
    # Past ~1e14 s a float no longer resolves 50 ms steps.
    return max(epoch, math.nextafter(fill_s, math.inf))


def _one_fleet(batch_fill_ms: float) -> dict[str, Any]:
    return {
        "initial_fleets": 1,
        "min_fleets": 1,
        "max_fleets": 1,
        "autoscale": False,
        "interval_s": _epoch_s(batch_fill_ms),
    }


def fleet_config(**fields: Any) -> ClusterConfig:
    """The one-fleet :class:`ClusterConfig`: :data:`FLEET_DEFAULTS`,
    overridden by ``fields`` (any :class:`ClusterConfig` field but the
    fleet count, autoscaling and the epoch, which are fixed)."""
    fields = {**FLEET_DEFAULTS, **fields}
    return ClusterConfig(**fields, **_one_fleet(fields["batch_fill_ms"]))


def _trace_of(requests: Sequence[SolveRequest]) -> RequestTrace:
    """One trace row per request, in the (arrival-sorted) given order."""
    sources = tuple(dict.fromkeys(r.source for r in requests))
    index = {source: i for i, source in enumerate(sources)}
    return RequestTrace(
        sources=sources,
        arrival_s=np.array(
            [r.arrival_s for r in requests], dtype=np.float64
        ),
        source_idx=np.array(
            [index[r.source] for r in requests], dtype=np.int16
        ),
        priority=np.array([int(r.priority) for r in requests], dtype=np.int8),
        deadline_s=np.array(
            [math.inf if r.deadline_s is None else r.deadline_s
             for r in requests],
            dtype=np.float64,
        ),
    )


@dataclass
class ServingReport:
    """The single-fleet view of one :class:`ClusterReport`.

    ``requests`` is the served log in arrival order (row ``i`` of
    ``trace``); :attr:`responses` gives every request exactly one
    :class:`SolveResponse`, built from the cluster's per-request outcome
    record and batch log.
    """

    cluster: ClusterReport
    requests: list[SolveRequest]
    trace: RequestTrace
    profiles: dict[str, "SolveProfile | str"]
    telemetry: Telemetry = field(default_factory=Telemetry)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def config(self) -> ClusterConfig:
        return self.cluster.config

    @property
    def counters(self) -> dict[str, int]:
        return dict(self.telemetry.counters)

    @property
    def unaccounted(self) -> int:
        """Requests in no outcome bucket — the invariant says zero."""
        return self.cluster.unaccounted

    @property
    def shed_count(self) -> int:
        counts = self.cluster.counts
        return counts["shed_overflow"] + counts["shed_drain_limit"]

    @property
    def expired_count(self) -> int:
        return self.cluster.counts["expired"]

    @property
    def cache_hit_rate(self) -> float:
        """Share of completed requests served by a warm batch."""
        log = self.cluster.batch_log
        done = int(log.size.sum())
        return int(log.size[~log.cold].sum()) / done if done else 0.0

    # -- per-request record ---------------------------------------------

    def _served(self) -> dict[str, np.ndarray]:
        """Finish, service start and batch of each completed request,
        aligned with ``cluster.served_idx``."""
        log = self.cluster.batch_log
        sizes = log.size
        batch = np.repeat(np.arange(len(log)), sizes)
        member = np.arange(batch.shape[0]) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        step = log.step_s[batch]
        finish = log.first_finish_s[batch] + step * member
        start = np.where(member == 0, log.start_s[batch], finish - step)
        return {"batch": batch, "finish": finish, "start": start}

    @cached_property
    def responses(self) -> list[SolveResponse]:
        """One response per accounted request, by (finish, request id)."""
        trace, cluster = self.trace, self.cluster
        # Unserved requests end on arrival (shed, failed) or at their
        # lapsed deadline (expired); served ones as the batch log says.
        expired = cluster.outcomes == OUTCOMES.index("expired")
        finish = np.where(expired, trace.deadline_s, trace.arrival_s)
        start = finish.copy()
        batch = np.full(len(trace), -1, dtype=np.int64)
        served = self._served()
        finish[cluster.served_idx] = served["finish"]
        start[cluster.served_idx] = served["start"]
        batch[cluster.served_idx] = served["batch"]
        slots = cluster.batch_log.slot.tolist()
        cold = cluster.batch_log.cold.tolist()
        responses = []
        for request, code, done, began, batch_id in zip(
            self.requests, cluster.outcomes.tolist(), finish.tolist(),
            start.tolist(), batch.tolist(),
        ):
            if not code:  # unaccounted: no response to give
                continue
            outcome, detail = _RESPONSE[OUTCOMES[code]]
            profile = self.profiles[request.source]
            solved = {} if batch_id < 0 else dict(
                service_s=done - began,
                cache_hit=not cold[batch_id],
                batch_id=batch_id,
                instance=slots[batch_id],
                converged=profile.converged,
                solver_sequence=profile.solver_sequence,
                iterations=profile.iterations,
            )
            responses.append(SolveResponse(
                request_id=request.request_id,
                source=request.source,
                outcome=outcome,
                priority=request.priority,
                arrival_s=request.arrival_s,
                finish_s=done,
                queue_s=began - request.arrival_s,
                detail=profile if outcome is Outcome.FAILED else detail,
                **solved,
            ))
        responses.sort(key=lambda r: (r.finish_s, r.request_id))
        return responses

    @property
    def completed(self) -> list[SolveResponse]:
        return [r for r in self.responses if r.outcome is Outcome.COMPLETED]

    # -- JSON view ------------------------------------------------------

    def _config_dict(self) -> dict[str, Any]:
        config = self.config
        fleet: dict[str, Any] = {"total_slots": config.slots_per_fleet}
        # Tenancy-mix keys appear only on heterogeneous fleets so the
        # pure-FPGA config schema stays minimal.
        if config.heterogeneous:
            fleet["gpu_tenants"] = config.gpu_tenants_per_fleet
            fleet["cpu_assist"] = config.cpu_assist
        return {
            "queue_capacity": config.queue_capacity,
            "max_batch": config.max_batch,
            "batch_window_ms": config.batch_fill_ms,
            "epoch_s": config.interval_s,
            "cache_enabled": config.cache_capacity > 0,
            "cache_capacity": config.cache_capacity,
            "fleet": fleet,
            "device_faults": len(config.device_faults),
        }

    def _converged(self) -> int:
        counts = np.bincount(
            self.trace.source_idx[self.cluster.served_idx],
            minlength=len(self.trace.sources),
        )
        return sum(
            int(count)
            for source, count in zip(self.trace.sources, counts)
            if isinstance(self.profiles[source], SolveProfile)
            and self.profiles[source].converged
        )

    def _fleet_by_class(self) -> dict[str, Any]:
        """Busy time, batches, loads and outages split by device class."""
        fleet = self.cluster.fleets[0]
        section: dict[str, Any] = {}
        for index in range(fleet.slots):
            stats = section.setdefault(
                GPU if index >= fleet.fpga_slots else FPGA,
                {"slots": 0, "device_seconds": 0.0, "batches": 0,
                 "config_loads": 0, "outages": 0},
            )
            stats["slots"] += 1
            stats["device_seconds"] += fleet.slot_busy[index]
            stats["outages"] += fleet.slot_outages[index]
        if FPGA in section:
            section[FPGA]["batches"] = fleet.batches - fleet.gpu_batches
            section[FPGA]["config_loads"] = fleet.config_loads
        if GPU in section:
            section[GPU]["batches"] = fleet.gpu_batches
            section[GPU]["config_loads"] = fleet.gpu_transfers
        for stats in section.values():
            stats["device_seconds"] = round(stats["device_seconds"], 9)
        return dict(sorted(section.items()))

    def as_dict(self, include_responses: bool = True) -> dict[str, Any]:
        cluster = self.cluster.as_dict()
        counts = self.cluster.counts
        fleet = self.cluster.fleets[0]
        cache = self.cluster.cache
        generated = self.cluster.generated
        shed, expired = self.shed_count, self.expired_count
        horizon = self.cluster.horizon_s
        document: dict[str, Any] = {
            "schema_version": SERVING_SCHEMA_VERSION,
            "serving": {**self.meta, **self._config_dict()},
            "requests": {
                "generated": generated,
                "completed": counts["completed"],
                "converged": self._converged(),
                "failed": counts["failed"],
                "shed": shed,
                "expired": expired,
                "unaccounted": self.unaccounted,
                "shed_rate": round(
                    (shed + expired) / generated, 9
                ) if generated else 0.0,
            },
            "latency_ms": cluster["latency_ms"],
            "queue": {
                **cluster["queue"],
                "shed_full": counts["shed_overflow"],
            },
            "cache": {
                "enabled": cache.enabled,
                "hit_rate": round(self.cache_hit_rate, 9),
                "entries": cache.local_entries(fleet.fleet_id),
                "lookups": {
                    **cluster["cache"]["lookups"],
                    "evictions": cache.local_evictions(),
                },
            },
            "batches": {
                "count": cluster["batches"]["count"],
                "mean_size": cluster["batches"]["mean_size"],
                "max_size": cluster["batches"]["max_size"],
                "cold": int(np.count_nonzero(self.cluster.batch_log.cold)),
                "config_loads": fleet.config_loads + fleet.gpu_transfers,
            },
            "fleet": {
                "total_slots": fleet.slots,
                "horizon_s": round(horizon, 9),
                "busy_fraction": [
                    round(busy / horizon, 9) if horizon else 0.0
                    for busy in fleet.slot_busy
                ],
                "device_seconds": cluster["fleets"]["device_seconds"],
                "device_faults": sum(fleet.slot_outages),
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if self.config.gpu_tenants_per_fleet > 0:
            document["placement"] = cluster["placement"]
            document["fleet"]["by_class"] = self._fleet_by_class()
        if include_responses:
            document["responses"] = [r.as_dict() for r in self.responses]
        return document

    def to_json(self, include_responses: bool = True) -> str:
        return json.dumps(
            self.as_dict(include_responses=include_responses),
            indent=2,
            sort_keys=True,
        ) + "\n"

    def write_json(
        self, path: str | Path, include_responses: bool = True
    ) -> Path:
        path = Path(path)
        path.write_text(self.to_json(include_responses=include_responses))
        return path

    def write_response_log(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w") as fh:
            for response in self.responses:
                fh.write(json.dumps(response.as_dict(), sort_keys=True) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        doc = self.as_dict(include_responses=False)
        overall = doc["latency_ms"]["overall"]
        return [
            f"requests generated    : {doc['requests']['generated']}",
            f"completed / converged : {doc['requests']['completed']} / "
            f"{doc['requests']['converged']}",
            f"shed / expired        : {doc['requests']['shed']} / "
            f"{doc['requests']['expired']} "
            f"(shed rate {doc['requests']['shed_rate']:.1%})",
            f"latency p50 / p99     : {format_latency_ms(overall['p50'])} / "
            f"{format_latency_ms(overall['p99'])} ms",
            f"cache hit rate        : {doc['cache']['hit_rate']:.1%} "
            f"({doc['cache']['entries']} entries)",
            f"batches (mean size)   : {doc['batches']['count']} "
            f"({doc['batches']['mean_size']:.2f})",
            f"queue depth max/mean  : {doc['queue']['max_depth']} / "
            f"{doc['queue']['mean_depth']:.2f}",
            f"fleet device seconds  : {doc['fleet']['device_seconds']:.4f} "
            f"over {doc['fleet']['total_slots']} slots",
        ]


def run_loadtest(
    spec: "LoadSpec",
    config: ClusterConfig | None = None,
    acamar_config: AcamarConfig | None = None,
) -> ServingReport:
    """Generate synthetic traffic for ``spec`` and serve it on one fleet."""
    from repro.serve.loadgen import generate_requests

    return run_service(
        generate_requests(spec), config, acamar_config, meta=spec.as_dict()
    )


def run_service(
    requests: Sequence[SolveRequest],
    config: ClusterConfig | None = None,
    acamar_config: AcamarConfig | None = None,
    meta: dict[str, Any] | None = None,
) -> ServingReport:
    """Serve ``requests`` on one fleet; every request gets one outcome.

    ``config`` defaults to :func:`fleet_config`; whatever is passed, the
    run has one fleet, no autoscaling and :data:`FLEET_EPOCH_S` epochs
    (stretched past a longer fill window).
    """
    config = fleet_config() if config is None else dataclasses.replace(
        config, **_one_fleet(config.batch_fill_ms)
    )
    acamar_config = (
        acamar_config if acamar_config is not None else AcamarConfig()
    )
    requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    trace = _trace_of(requests)
    collector = Telemetry()
    with collector.activate():
        profiles = build_profiles(
            list(trace.sources),
            acamar_config,
            workers=config.workers,
            collector=collector,
        )
        cluster = run_cluster(trace, config, acamar_config, profiles=profiles)
        collector.merge(cluster.telemetry)
        report = ServingReport(
            cluster=cluster,
            requests=requests,
            trace=trace,
            profiles=profiles,
            telemetry=collector,
            meta=dict(meta or {}),
        )
        tm.count("serve.requests", len(requests))
    return report

