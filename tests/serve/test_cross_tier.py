"""Cross-tier parity: the single-fleet scheduler and the cluster tier
price the same batch the same way and place it on the same kind of slot.

Both tiers are driven with synthetic profiles, so every device-second
below is a closed-form sum of profile scalars and no real solve runs.
"""

import numpy as np
import pytest

from repro.fpga.multitenancy import FleetSpec
from repro.placement import FPGA, GPU
from repro.serve.admission import QueuedRequest
from repro.serve.api import Priority, SolveRequest
from repro.serve.cache import PlanCache
from repro.serve.cluster.service import (
    ClusterConfig,
    _ClusterSimulation,
    run_cluster,
)
from repro.serve.cluster.trace import RequestTrace
from repro.serve.profile import SolveProfile
from repro.serve.scheduler import MicroBatchScheduler

BURST_GAP_S = 0.5
"""Far wider than any batch below, so every burst finds its slot idle."""

FILL_MS = 40.0


def synthetic(label, attempts, swap, gpu_warm, gpu_transfer):
    return SolveProfile(
        label=label,
        fingerprint=f"fp-{label}",
        plan_signature=f"sig-{label}",
        n=100,
        nnz=500,
        converged=True,
        solver_sequence=("cg", "bicgstab")[: len(attempts)],
        iterations=10,
        attempt_compute_s=attempts,
        solver_swap_s=swap,
        analysis_s=1e-3,
        gpu_warm_service_s=gpu_warm,
        gpu_transfer_s=gpu_transfer,
    )


# "F" is cheap on the fabric and "G" on a GPU tenant; both fall back once,
# so cold heads pay a solver swap (FPGA) or the attempt/final chain (GPU).
PROFILES = {
    "F": synthetic("F", (3e-4, 1e-4), 5e-3, 2e-3, 2e-4),
    "G": synthetic("G", (1e-3, 2e-3), 4e-3, 1e-4, 2e-4),
}
SOURCES = ("F", "G")


def trace_of(arrivals, source_idx):
    n = len(arrivals)
    return RequestTrace(
        sources=SOURCES,
        arrival_s=np.asarray(arrivals, dtype=np.float64),
        source_idx=np.asarray(source_idx, dtype=np.int16),
        priority=np.full(n, Priority.BATCH.value, dtype=np.int8),
        deadline_s=np.full(n, np.inf),
        meta={"duration_s": float(arrivals[-1]) + 1.0},
    )


def one_fleet(slots, gpu_tenants, max_batch, cpu_assist=False):
    return ClusterConfig(
        initial_fleets=1, min_fleets=1, max_fleets=1,
        slots_per_fleet=slots, gpu_tenants_per_fleet=gpu_tenants,
        cpu_assist=cpu_assist, max_batch=max_batch,
        batch_fill_ms=FILL_MS, autoscale=False,
    )


def queued(rid, source, at):
    return QueuedRequest(
        request=SolveRequest(request_id=rid, source=source, arrival_s=at),
        admitted_s=at,
        cost=1.0,
    )


def scheduler_for(slots, gpu_tenants, max_batch, cpu_assist=False):
    return MicroBatchScheduler(
        fleet=FleetSpec(
            devices=1, slots_per_device=slots,
            gpu_tenants=gpu_tenants, cpu_assist=cpu_assist,
        ),
        profiles=dict(PROFILES),
        cache=PlanCache(capacity=8),
        max_batch=max_batch,
        batch_window_s=1e-3,
    )


class TestBatchPricingParity:
    """Per-batch device seconds agree between the two tiers."""

    K = 4
    BURSTS = 6

    @pytest.mark.parametrize(
        "gpu_tenants, cpu_assist",
        [(0, False), (1, False), (1, True)],
        ids=["fpga", "gpu", "cpu_assist"],
    )
    def test_per_batch_device_seconds_match(self, gpu_tenants, cpu_assist):
        k = self.K
        burst_at = [BURST_GAP_S * (j + 1) for j in range(self.BURSTS)]
        burst_src = [j % 2 for j in range(self.BURSTS)]

        scheduler = scheduler_for(1, gpu_tenants, k, cpu_assist)
        rid = 0
        for at, src in zip(burst_at, burst_src):
            burst = [queued(rid + i, SOURCES[src], at) for i in range(k)]
            rid += k
            responses, remaining, _ = scheduler.dispatch(
                burst, now=at, next_batch_id=len(scheduler.batches)
            )
            assert remaining == [] and len(responses) == k
        single = [b.end_s - b.start_s for b in scheduler.batches]
        classes = [b.device_class for b in scheduler.batches]

        trace = trace_of(
            np.repeat(burst_at, k), np.repeat(burst_src, k)
        )
        sim = _ClusterSimulation(
            trace, one_fleet(1, gpu_tenants, k, cpu_assist), PROFILES
        )
        sim.run(float(trace.meta["duration_s"]))
        assert sim.batch_size == [k] * self.BURSTS
        starts = np.asarray(burst_at) + FILL_MS * 1e-3
        cluster = (
            np.asarray(sim.batch_first)
            + np.asarray(sim.batch_step) * (k - 1)
            - starts
        )

        assert len(single) == self.BURSTS
        np.testing.assert_allclose(cluster, single, rtol=0.0, atol=1e-12)
        expected = [FPGA, GPU] * (self.BURSTS // 2) if gpu_tenants else (
            [FPGA] * self.BURSTS
        )
        assert classes == expected


class TestSlotTieOrder:
    """A residency miss takes an unconfigured slot before evicting one."""

    REQUESTS = 8

    def test_scheduler_alternating_signatures_load_once_each(self):
        scheduler = scheduler_for(4, 0, max_batch=1)
        for rid in range(self.REQUESTS):
            at = 0.1 * (rid + 1)
            scheduler.dispatch(
                [queued(rid, SOURCES[rid % 2], at)], now=at, next_batch_id=rid
            )
        assert len(scheduler.batches) == self.REQUESTS
        assert sum(s.config_loads for s in scheduler.slots) == 2

    def test_cluster_alternating_signatures_load_once_each(self):
        arrivals = [0.25 * (i + 1) for i in range(self.REQUESTS)]
        trace = trace_of(arrivals, [i % 2 for i in range(self.REQUESTS)])
        doc = run_cluster(
            trace, one_fleet(4, 0, max_batch=8), profiles=dict(PROFILES)
        ).as_dict()
        assert doc["batches"]["count"] == self.REQUESTS
        assert doc["batches"]["config_loads"] == 2
