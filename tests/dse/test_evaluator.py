"""Tests for end-to-end design-point evaluation and the sweep."""

import pytest

from repro.dse import (
    DesignSpace,
    FleetShape,
    TrafficSpec,
    acamar_config_for,
    cluster_config_for,
    evaluate_point,
    point_id,
    run_dse,
    run_sweep,
)
from repro.config import AcamarConfig
from repro.dse.evaluator import evaluate_payload
from repro.parallel import WorkItem, run_sharded
from repro.telemetry import Telemetry


def tiny_shape(**overrides):
    fields = dict(
        slots_per_fleet=2, max_unroll=16, solver_mix="paper-default",
        cache_capacity=8, queue_capacity=256, min_fleets=1, max_fleets=2,
    )
    fields.update(overrides)
    return FleetShape(**fields)


def tiny_traffic():
    return TrafficSpec(
        name="t", mix="repeat-heavy", rate_rps=50.0, duration_s=2.0
    )


def tiny_space():
    return DesignSpace(
        shapes=(tiny_shape(), tiny_shape(max_unroll=64)),
        traffic=(tiny_traffic(),),
        sources=("2C", "Wi"),
    )


class TestConfigMapping:
    def test_shape_maps_to_acamar_config(self):
        config = acamar_config_for(tiny_shape(solver_mix="cg-first"))
        assert config.max_unroll == 16
        assert config.solver_fallback_order == (
            "cg", "bicgstab", "jacobi"
        )

    def test_base_config_overrides_survive(self):
        base = AcamarConfig(sampling_rate=32)
        config = acamar_config_for(tiny_shape(), base)
        assert config.sampling_rate == 32
        assert config.max_unroll == 16

    def test_shape_maps_to_cluster_config(self):
        config = cluster_config_for(tiny_shape())
        assert config.slots_per_fleet == 2
        assert config.initial_fleets == 1
        assert config.max_fleets == 2
        assert config.autoscale is True
        assert config.workers == 1

    def test_static_fleet_bounds_disable_autoscaling(self):
        config = cluster_config_for(
            tiny_shape(min_fleets=2, max_fleets=2)
        )
        assert config.autoscale is False


class TestEvaluatePoint:
    def test_record_carries_all_frontier_objectives(self):
        record = evaluate_point(
            tiny_shape(), tiny_traffic(), ("2C", "Wi"), seed=0
        )
        metrics = record["metrics"]
        for key in ("p99_ms", "device_seconds", "area_mm2",
                    "reconfig_rate_per_s", "gflops_per_watt",
                    "fabric_mm2_seconds", "energy_j"):
            assert key in metrics
        assert metrics["completed"] > 0
        assert metrics["gflops_per_watt"] > 0
        assert metrics["area_mm2"] > 0
        assert record["id"].endswith("@t")

    def test_same_seed_same_record(self):
        args = (tiny_shape(), tiny_traffic(), ("2C", "Wi"))
        assert evaluate_point(*args, seed=0) == evaluate_point(
            *args, seed=0
        )

    def test_seed_changes_the_workload(self):
        args = (tiny_shape(), tiny_traffic(), ("2C", "Wi"))
        first = evaluate_point(*args, seed=0)
        second = evaluate_point(*args, seed=1)
        assert first["metrics"] != second["metrics"]


class TestEvaluateItems:
    def test_bad_payload_becomes_error_record(self):
        item = WorkItem(
            index=0,
            source={
                "shape": {**tiny_shape().as_dict(),
                          "slots_per_fleet": 0},
                "traffic": tiny_traffic().as_dict(),
                "sources": ["2C"],
            },
            seed=0,
            cost=1.0,
        )
        (result,) = run_sharded(
            [item], AcamarConfig(), work_fn=evaluate_payload
        ).results
        assert result.entry is None
        assert "ConfigurationError" in result.error

    def test_lost_worker_counts_as_failed_point(self, losing_pool):
        space = tiny_space()
        collector = Telemetry()
        report = run_dse(space, seed=0, workers=2, collector=collector)
        shape, traffic = next(iter(space.points()))
        assert [f["id"] for f in report.failures] == [
            point_id(shape, traffic)
        ]
        assert report.failures[0]["error"].startswith("WorkerLost")
        assert collector.counters["dse.points_failed"] == 1
        assert collector.counters["dse.points_evaluated"] == len(space) - 1
        assert "campaign.failures" not in collector.counters
        assert "campaign.workers_lost" not in collector.counters

    def test_counters_track_outcomes(self):
        space = tiny_space()
        collector = Telemetry()
        run_sweep(space, seed=0, collector=collector)
        assert collector.counters["dse.points_evaluated"] == len(space)


class TestRunSweep:
    def test_results_ordered_and_complete(self):
        space = tiny_space()
        results = run_sweep(space, seed=0)
        assert [r.index for r in results] == list(range(len(space)))
        assert all(r.entry is not None for r in results)

    @pytest.mark.slow
    def test_workers_do_not_change_records(self):
        space = tiny_space()
        solo = run_sweep(space, seed=0, workers=1)
        pooled = run_sweep(space, seed=0, workers=2)
        assert [r.entry for r in solo] == [r.entry for r in pooled]
