"""Placement-parity suite: the mixed-fleet backend must be invisible
when disabled and byte-deterministic when enabled.

Three contracts, each pinned hard:

1. **Forced single-backend = pre-PR behavior.**  With ``gpu_tenants=0``
   and ``cpu_assist=False`` the serving and cluster reports reproduce
   the exact pre-placement numbers (golds below) and carry *no*
   placement/GPU keys — schema parity, not just value parity.
2. **Byte determinism.**  A mixed FPGA+GPU run serializes to the same
   bytes on every run and for every ``workers`` value.
3. **Class-scoped faults.**  A GPU-tenant fault can never evict an
   FPGA plan (satellite 3), and fault application is idempotent.
"""

import json

import pytest

from repro.fpga import FleetSpec
from repro.placement import FPGA, GPU, STRUCTURAL_CLASSES
from repro.serve import (
    LoadSpec,
    fleet_config,
    generate_requests,
    run_cluster_loadtest,
    run_service,
)
from repro.serve.cluster.service import (
    ClusterConfig,
    DeviceFaultEvent,
    _ClusterSimulation,
)
from tests.serve.synthetic import trace_of

# Pinned numbers: LoadSpec(seed=7, 2 s, 120 rps) on a pure-FPGA
# 3-slot fleet, served as a one-fleet cluster run (50 ms epochs,
# interactive heads depart without waiting for the fill window).
# The placement backend must not move any of them.
SERVE_GOLD = {
    "completed": 235,
    "p50_ms": 3.32712,
    "p99_ms": 9.087017,
    "batches": 228,
    "config_loads": 113,
    "device_seconds": 0.741143475,
    "hit_rate": 0.89787234,
}

# Pinned numbers: LoadSpec(seed=3, 12 s, 400 rps, repeat-heavy)
# on 2..4 fleets of 3 FPGA slots, with batches priced by ``price_batch``
# (later members pay member dispatch), ties broken toward an
# unconfigured slot and interactive-headed batches departing at once.
CLUSTER_GOLD = {
    "completed": 4858,
    "p50_ms": 30.938398,
    "p99_ms": 50.19243,
    "batches": 2034,
    "config_loads": 1596,
    "device_seconds": 11.617670088,
    "peak": 2,
}

MIXED_FLEET = FleetSpec(
    devices=1, slots_per_device=2, gpu_tenants=2, cpu_assist=True
)


def _serve_report(fleet: FleetSpec, workers: int = 1):
    requests = generate_requests(
        LoadSpec(seed=7, duration_s=2.0, rate_rps=120.0)
    )
    return run_service(
        requests,
        fleet_config(
            slots_per_fleet=fleet.total_slots,
            gpu_tenants_per_fleet=fleet.gpu_tenants,
            cpu_assist=fleet.cpu_assist,
            workers=workers,
        ),
    )


def _cluster_report(config: ClusterConfig):
    spec = LoadSpec(
        seed=3, duration_s=12.0, rate_rps=400.0, mix="repeat-heavy"
    )
    return run_cluster_loadtest(spec, config)


class TestForcedSingleBackend:
    """gpu_tenants=0 must reproduce the pre-PR reports exactly."""

    def test_serve_gold_values(self):
        doc = _serve_report(FleetSpec(devices=1, slots_per_device=3)).as_dict()
        assert doc["requests"]["completed"] == SERVE_GOLD["completed"]
        assert doc["latency_ms"]["overall"]["p50"] == SERVE_GOLD["p50_ms"]
        assert doc["latency_ms"]["overall"]["p99"] == SERVE_GOLD["p99_ms"]
        assert doc["batches"]["count"] == SERVE_GOLD["batches"]
        assert doc["batches"]["config_loads"] == SERVE_GOLD["config_loads"]
        assert doc["fleet"]["device_seconds"] == SERVE_GOLD["device_seconds"]
        assert doc["cache"]["hit_rate"] == SERVE_GOLD["hit_rate"]

    def test_serve_schema_parity(self):
        doc = _serve_report(FleetSpec(devices=1, slots_per_device=3)).as_dict()
        assert "placement" not in doc
        assert "gpu_tenants" not in doc["serving"]["fleet"]
        assert "cpu_assist" not in doc["serving"]["fleet"]
        text = json.dumps(doc)
        assert "gpu_batches" not in text
        assert "cpu_assist" not in text

    def test_cluster_gold_values(self):
        doc = _cluster_report(
            ClusterConfig(
                initial_fleets=2, min_fleets=1, max_fleets=4,
                slots_per_fleet=3,
            )
        ).as_dict()
        assert doc["requests"]["completed"] == CLUSTER_GOLD["completed"]
        assert doc["latency_ms"]["overall"]["p50"] == CLUSTER_GOLD["p50_ms"]
        assert doc["latency_ms"]["overall"]["p99"] == CLUSTER_GOLD["p99_ms"]
        assert doc["batches"]["count"] == CLUSTER_GOLD["batches"]
        assert doc["batches"]["config_loads"] == CLUSTER_GOLD["config_loads"]
        assert doc["fleets"]["device_seconds"] == CLUSTER_GOLD["device_seconds"]
        assert doc["fleets"]["peak"] == CLUSTER_GOLD["peak"]

    def test_cluster_schema_parity(self):
        doc = _cluster_report(
            ClusterConfig(
                initial_fleets=2, min_fleets=1, max_fleets=4,
                slots_per_fleet=3,
            )
        ).as_dict()
        assert "placement" not in doc
        text = json.dumps(doc)
        assert "gpu_tenants" not in text
        assert "gpu_batches" not in text
        assert "cpu_assist" not in text


class TestByteDeterminism:
    def test_mixed_serve_identical_across_runs(self):
        first = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        second = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("workers", [2, 3])
    def test_mixed_serve_identical_across_workers(self, workers):
        base = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        sharded = json.dumps(
            _serve_report(MIXED_FLEET, workers=workers).as_dict(),
            sort_keys=True,
        )
        assert base == sharded

    def test_mixed_cluster_identical_across_workers(self):
        config = dict(
            initial_fleets=2, min_fleets=1, max_fleets=4,
            slots_per_fleet=2, gpu_tenants_per_fleet=2,
            max_gpu_tenants=3, cpu_assist=True,
        )
        base = json.dumps(
            _cluster_report(ClusterConfig(**config)).as_dict(), sort_keys=True
        )
        sharded = json.dumps(
            _cluster_report(ClusterConfig(**config, workers=2)).as_dict(),
            sort_keys=True,
        )
        assert base == sharded


class TestMixedFleetDecisions:
    def test_placement_section_is_complete_and_valid(self):
        doc = _serve_report(MIXED_FLEET).as_dict()
        section = doc["placement"]
        decisions = section["sources"].values()
        assert decisions, "mixed run profiled no sources"
        for decision in decisions:
            assert decision["device_class"] in (FPGA, GPU)
            assert decision["structural_class"] in STRUCTURAL_CLASSES
            assert not decision["forced"]
            assert decision["fpga_batch_s"] > 0.0
            assert decision["gpu_batch_s"] > 0.0
        assert section["by_class"][FPGA] + section["by_class"][GPU] == len(
            section["sources"]
        )
        matrix_total = sum(
            count
            for row in section["scenario_matrix"].values()
            for count in row.values()
        )
        assert matrix_total == len(section["sources"])

    def test_both_classes_win_somewhere(self):
        # The decision layer is only earning its keep if the traffic
        # splits; the seed-7 registry mix does split.
        by_class = _serve_report(MIXED_FLEET).as_dict()["placement"]["by_class"]
        assert by_class[FPGA] > 0
        assert by_class[GPU] > 0

    def test_single_backend_decisions_are_forced(self):
        doc = _serve_report(
            FleetSpec(devices=1, slots_per_device=0, gpu_tenants=2)
        ).as_dict()
        for decision in doc["placement"]["sources"].values():
            assert decision["device_class"] == GPU
            assert decision["forced"]


class TestClassScopedFaults:
    """Satellite 3: fault isolation between co-scheduled device classes."""

    @staticmethod
    def _fleet(faults, fleet=MIXED_FLEET):
        config = fleet_config(
            slots_per_fleet=fleet.total_slots,
            gpu_tenants_per_fleet=fleet.gpu_tenants,
            cpu_assist=fleet.cpu_assist,
            device_faults=faults,
        )
        sim = _ClusterSimulation(trace_of([]), config, {})
        state = sim._add_fleet(0.0)
        state.slot_resident = [f"plan-{i}" for i in range(state.slots)]
        return sim, state

    @staticmethod
    def _classes(state):
        return [
            GPU if i >= state.fpga_slots else FPGA for i in range(state.slots)
        ]

    def test_gpu_fault_cannot_evict_fpga_plan(self):
        event = DeviceFaultEvent(at_s=1.0, slot=0, outage_s=0.5,
                                 device_class=GPU)
        sim, state = self._fleet((event,))
        sim._apply_device_fault(event)
        classes = self._classes(state)
        fpga = [i for i, c in enumerate(classes) if c == FPGA]
        gpu = [i for i, c in enumerate(classes) if c == GPU]
        assert all(state.slot_resident[i] for i in fpga)
        assert all(state.slot_outages[i] == 0 for i in fpga)
        assert state.slot_resident[gpu[0]] == ""
        assert state.slot_outages[gpu[0]] == 1
        assert state.slot_resident[gpu[1]]

    def test_fpga_fault_cannot_evict_gpu_plan(self):
        event = DeviceFaultEvent(at_s=1.0, slot=1, outage_s=0.5,
                                 device_class=FPGA)
        sim, state = self._fleet((event,))
        sim._apply_device_fault(event)
        classes = self._classes(state)
        gpu = [i for i, c in enumerate(classes) if c == GPU]
        assert all(state.slot_resident[i] for i in gpu)
        assert all(state.slot_outages[i] == 0 for i in gpu)
        fpga_hit = [i for i, c in enumerate(classes) if c == FPGA][1]
        assert state.slot_resident[fpga_hit] == ""
        assert state.slot_outages[fpga_hit] == 1

    def test_fault_application_is_idempotent(self):
        # Each scheduled fault is one timer event: a whole run applies
        # it exactly once, however many epochs follow.
        event = DeviceFaultEvent(at_s=0.01, slot=0, outage_s=0.005,
                                 device_class=GPU)
        config = fleet_config(
            slots_per_fleet=2, gpu_tenants_per_fleet=2, device_faults=(event,)
        )
        sim = _ClusterSimulation(trace_of([]), config, {})
        sim.run(duration_s=1.0)
        state = sim.fleets[0]
        assert state.slot_outages == [0, 0, 1, 0]
        assert sim.counts["device_faults"] == 1

    def test_fault_for_absent_class_is_consumed_without_effect(self):
        event = DeviceFaultEvent(at_s=1.0, slot=0, outage_s=0.5,
                                 device_class=GPU)
        sim, state = self._fleet(
            (event,), FleetSpec(devices=1, slots_per_device=2)
        )
        sim._apply_device_fault(event)
        assert all(state.slot_resident)
        assert state.slot_outages == [0, 0]
        assert sim.counts["device_faults"] == 0
