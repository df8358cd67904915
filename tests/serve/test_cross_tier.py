"""One simulator for both serving tiers: a one-fleet run charges each
batch exactly what :func:`~repro.serve.profile.price_batch` prices, and
places it on the same kind of slot, whether it is reached through the
single-fleet defaults (:func:`fleet_config`) or a cluster config.

Runs use synthetic profiles, so every device-second below is a
closed-form sum of profile scalars and no real solve runs.
"""

import numpy as np
import pytest

from repro.placement import FPGA, GPU
from repro.serve.api import Priority
from repro.serve.cluster.service import ClusterConfig, run_cluster
from repro.serve.cluster.trace import generate_trace
from repro.serve.loadgen import LoadSpec
from repro.serve.profile import price_batch
from repro.serve.service import fleet_config
from tests.serve.synthetic import synthetic, trace_of

BURST_GAP_S = 0.5
"""Far wider than any batch below, so every burst finds its slot idle."""

FILL_MS = 40.0

# "F" is cheap on the fabric and "G" on a GPU tenant; both fall back once,
# so cold heads pay a solver swap (FPGA) or the attempt/final chain (GPU).
PROFILES = {
    "F": synthetic("F", (3e-4, 1e-4), swap=5e-3, gpu_warm=2e-3,
                   gpu_transfer=2e-4),
    "G": synthetic("G", (1e-3, 2e-3), swap=4e-3, gpu_warm=1e-4,
                   gpu_transfer=2e-4),
}
SOURCES = ("F", "G")


def one_fleet(slots, gpu_tenants, max_batch, cpu_assist=False):
    return ClusterConfig(
        initial_fleets=1, min_fleets=1, max_fleets=1,
        slots_per_fleet=slots, gpu_tenants_per_fleet=gpu_tenants,
        cpu_assist=cpu_assist, max_batch=max_batch,
        batch_fill_ms=FILL_MS, autoscale=False,
    )


class TestBatchPricingParity:
    """Per-batch device seconds equal what ``price_batch`` gives."""

    K = 4
    BURSTS = 6

    @pytest.mark.parametrize(
        "gpu_tenants, cpu_assist",
        [(0, False), (1, False), (1, True)],
        ids=["fpga", "gpu", "cpu_assist"],
    )
    def test_per_batch_device_seconds_match(self, gpu_tenants, cpu_assist):
        k = self.K
        rows = [
            (BURST_GAP_S * (j + 1), SOURCES[j % 2])
            for j in range(self.BURSTS)
            for _ in range(k)
        ]
        report = run_cluster(
            trace_of(rows, SOURCES, duration_s=rows[-1][0] + 1.0),
            one_fleet(1, gpu_tenants, k, cpu_assist),
            profiles=PROFILES,
        )
        log = report.batch_log
        assert log.size.tolist() == [k] * self.BURSTS
        fleet = report.fleets[0]
        classes = [GPU if s >= fleet.fpga_slots else FPGA for s in log.slot]
        expected_classes = [FPGA, GPU] * (self.BURSTS // 2) if gpu_tenants \
            else [FPGA] * self.BURSTS
        assert classes == expected_classes

        # One slot per class, so a class's slot reloads exactly when the
        # source differs from the last one it served.
        resident: dict[str, str] = {}
        expected = []
        for j, device_class in enumerate(classes):
            source = SOURCES[j % 2]
            price = price_batch(
                PROFILES[source], device_class,
                cold=j < 2, cpu_assist=cpu_assist,
            )
            load = price.load_s if resident.get(device_class) != source else 0.0
            resident[device_class] = source
            expected.append(load + price.head_s + price.member_s * (k - 1))
        np.testing.assert_allclose(
            log.end_s - log.start_s, expected, rtol=0.0, atol=1e-12
        )
        assert report.as_dict()["fleets"]["device_seconds"] == round(
            sum(expected), 9
        )


class TestSlotTieOrder:
    """A residency miss takes an unconfigured slot before evicting one."""

    REQUESTS = 8

    def test_scheduler_alternating_signatures_load_once_each(self):
        # The single-fleet defaults: 1 ms fill, 50 ms epochs.
        rows = [(0.1 * (i + 1), SOURCES[i % 2]) for i in range(self.REQUESTS)]
        doc = run_cluster(
            trace_of(rows, SOURCES), fleet_config(max_batch=1),
            profiles=dict(PROFILES),
        ).as_dict()
        assert doc["batches"]["count"] == self.REQUESTS
        assert doc["batches"]["config_loads"] == 2

    def test_cluster_alternating_signatures_load_once_each(self):
        rows = [
            (0.25 * (i + 1), SOURCES[i % 2]) for i in range(self.REQUESTS)
        ]
        doc = run_cluster(
            trace_of(rows, SOURCES), one_fleet(4, 0, max_batch=8),
            profiles=dict(PROFILES),
        ).as_dict()
        assert doc["batches"]["count"] == self.REQUESTS
        assert doc["batches"]["config_loads"] == 2


# Computed before the shared interactive-head rule existed, on the
# trace below with every request made a batch-class request: the rule is
# the only change to the cluster model, so these must not move.
NO_INTERACTIVE_GOLD = {
    "completed": 1255,
    "batches": 463,
    "config_loads": 430,
    "device_seconds": 2.984560925,
    "p50_ms": 37.205214,
    "p99_ms": 53.477974,
}


class TestSharedBatchingRule:
    def test_trace_without_interactive_requests_does_not_move(self):
        # With its interactive requests kept, the same run moves:
        # 491 batches, 456 loads, p50 32.479239 ms.
        trace = generate_trace(LoadSpec(seed=5, duration_s=3.0, rate_rps=400.0))
        trace.priority[:] = Priority.BATCH.value
        trace.deadline_s[:] = np.inf
        doc = run_cluster(
            trace, ClusterConfig(initial_fleets=2, slots_per_fleet=2)
        ).as_dict()
        got = {
            "completed": doc["requests"]["completed"],
            "batches": doc["batches"]["count"],
            "config_loads": doc["batches"]["config_loads"],
            "device_seconds": doc["fleets"]["device_seconds"],
            "p50_ms": doc["latency_ms"]["overall"]["p50"],
            "p99_ms": doc["latency_ms"]["overall"]["p99"],
        }
        assert got == NO_INTERACTIVE_GOLD
