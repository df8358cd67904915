"""End-to-end tests of single-fleet serving and its report."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.api import Outcome, SolveRequest
from repro.serve.cluster.service import ClusterConfig
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import (
    FLEET_EPOCH_S,
    build_profiles,
    fleet_config,
    run_loadtest,
    run_service,
)

SOURCES = ("Wa", "Li")


def small_spec(**overrides):
    base = dict(seed=0, duration_s=1.0, rate_rps=60.0, sources=SOURCES)
    base.update(overrides)
    return LoadSpec(**base)


def small_config(**overrides):
    base = dict(slots_per_fleet=2)
    base.update(overrides)
    return fleet_config(**base)


@pytest.fixture(scope="module")
def baseline_report():
    return run_loadtest(small_spec(), small_config())


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fleet_config(workers=0)

    def test_workers_excluded_from_report_dict(self, baseline_report):
        serving = baseline_report.as_dict(include_responses=False)["serving"]
        assert "workers" not in serving

    def test_one_fleet_shape_is_fixed(self):
        config = fleet_config()
        assert (config.initial_fleets, config.max_fleets) == (1, 1)
        assert not config.autoscale
        assert config.interval_s == FLEET_EPOCH_S
        # A cluster config handed to run_service is served on one fleet.
        report = run_service(
            generate_requests(small_spec()),
            ClusterConfig(initial_fleets=3, max_fleets=4, slots_per_fleet=2),
        )
        assert len(report.cluster.fleets) == 1
        assert report.config.interval_s == FLEET_EPOCH_S

    @pytest.mark.parametrize(
        "window_ms", [0.0, 49.9, 50.0, 120.0, 150.0, 1500.0]
    )
    def test_every_batch_window_is_accepted(self, window_ms):
        # The cluster requires fill < epoch; a long window stretches
        # the epoch to the next multiple of FLEET_EPOCH_S.
        config = fleet_config(batch_fill_ms=window_ms)
        assert config.batch_fill_ms * 1e-3 < config.interval_s
        assert config.interval_s == FLEET_EPOCH_S or (
            config.interval_s <= window_ms * 1e-3 + FLEET_EPOCH_S
        )

    def test_huge_batch_window_is_accepted(self):
        # Beyond float resolution the epoch is the next float up.
        config = fleet_config(batch_fill_ms=1e300)
        assert config.batch_fill_ms * 1e-3 < config.interval_s

    @pytest.mark.parametrize("window_ms", [-1.0, float("nan"), float("inf")])
    def test_invalid_batch_window_rejected(self, window_ms):
        with pytest.raises(ConfigurationError):
            fleet_config(batch_fill_ms=window_ms)

    def test_idle_fleet_sheds_nothing(self):
        # 120 rps on a 64-deep queue: an epoch's arrivals always fit.
        doc = run_loadtest(LoadSpec(seed=0, duration_s=5.0)).as_dict(
            include_responses=False
        )
        assert doc["requests"]["shed"] == 0
        assert doc["requests"]["generated"] == 558


class TestBuildProfiles:
    def test_profiles_unique_sources_once(self):
        profiles = build_profiles(
            ["Wa", "Li", "Wa"], acamar_config(), workers=1
        )
        assert set(profiles) == {"Wa", "Li"}
        assert profiles["Wa"].converged

    def test_failure_maps_to_error_string(self):
        profiles = build_profiles(["Wa", "bogus-key"], acamar_config())
        assert profiles["Wa"].converged
        assert isinstance(profiles["bogus-key"], str)
        assert "bogus-key" in profiles["bogus-key"]

    def test_lost_worker_counts_as_profile_failure(self, losing_pool):
        from repro.serve.profile import SolveProfile
        from repro.telemetry import Telemetry

        collector = Telemetry()
        profiles = build_profiles(
            ["Wa", "2C"], acamar_config(), workers=2, collector=collector
        )
        assert profiles["Wa"].startswith("WorkerLost")
        assert isinstance(profiles["2C"], SolveProfile)
        assert collector.counters["serve.profile_failures"] == 1
        assert "campaign.failures" not in collector.counters
        assert "campaign.workers_lost" not in collector.counters


def acamar_config():
    from repro.config import AcamarConfig

    return AcamarConfig()


class TestAccountingInvariant:
    def test_every_request_has_exactly_one_response(self, baseline_report):
        report = baseline_report
        assert report.unaccounted == 0
        ids = sorted(r.request_id for r in report.responses)
        assert ids == sorted(r.request_id for r in report.requests)

    def test_invariant_holds_under_overload(self):
        # Tiny queue + one slot + high rate: the shed path fires.
        report = run_loadtest(
            small_spec(rate_rps=600.0, mix="bursty"),
            small_config(queue_capacity=4, slots_per_fleet=1),
        )
        assert report.unaccounted == 0
        assert report.shed_count > 0
        doc = report.as_dict(include_responses=False)
        assert doc["requests"]["unaccounted"] == 0
        assert doc["queue"]["max_depth"] <= 4

    def test_shed_responses_carry_detail(self):
        report = run_loadtest(
            small_spec(rate_rps=600.0, mix="bursty"),
            small_config(queue_capacity=4, slots_per_fleet=1),
        )
        for response in report.responses:
            if response.outcome is Outcome.SHED:
                assert response.detail


class TestDeterminism:
    def test_same_spec_byte_identical_report(self, baseline_report):
        again = run_loadtest(small_spec(), small_config())
        assert again.to_json() == baseline_report.to_json()

    def test_replayed_log_matches_live_run(self, baseline_report):
        requests = generate_requests(small_spec())
        replay = run_service(requests, small_config())
        assert [r.as_dict() for r in replay.responses] == [
            r.as_dict() for r in baseline_report.responses
        ]

    def test_worker_count_does_not_change_report(self, baseline_report):
        multi = run_loadtest(small_spec(), small_config(workers=2))
        assert multi.to_json() == baseline_report.to_json()


class TestCacheEffect:
    def test_cache_beats_no_cache_on_repeat_traffic(self, baseline_report):
        no_cache = run_loadtest(small_spec(), small_config(cache_capacity=0))
        warm = baseline_report.as_dict(include_responses=False)
        cold = no_cache.as_dict(include_responses=False)
        assert warm["cache"]["enabled"] and not cold["cache"]["enabled"]
        assert cold["cache"]["hit_rate"] == 0.0
        assert warm["cache"]["hit_rate"] > 0.5
        assert (
            warm["latency_ms"]["overall"]["p50"]
            < cold["latency_ms"]["overall"]["p50"]
        )
        # Residency tracking needs the cache: without it every batch
        # placement reloads the solver region.
        assert cold["batches"]["config_loads"] == cold["batches"]["count"]
        assert warm["batches"]["config_loads"] < warm["batches"]["count"]


class TestFailedSources:
    def test_unprofileable_source_yields_failed_responses(self):
        requests = [
            SolveRequest(request_id=0, source="Wa", arrival_s=0.0),
            SolveRequest(request_id=1, source="bogus-key", arrival_s=0.001),
        ]
        report = run_service(requests, small_config())
        by_id = {r.request_id: r for r in report.responses}
        assert by_id[0].outcome is Outcome.COMPLETED
        assert by_id[1].outcome is Outcome.FAILED
        assert report.unaccounted == 0


class TestReport:
    def test_summary_lines_render(self, baseline_report):
        lines = baseline_report.summary_lines()
        assert any("requests generated" in line for line in lines)
        assert any("cache hit rate" in line for line in lines)

    def test_json_report_shape(self, baseline_report, tmp_path):
        import json

        path = baseline_report.write_json(tmp_path / "report.json")
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["generated"] == len(
            baseline_report.requests
        )
        assert set(document["latency_ms"]["by_priority"]) == {
            "interactive", "batch", "best_effort",
        }
        assert len(document["responses"]) == len(baseline_report.responses)
        assert document["fleet"]["total_slots"] == 2

    def test_response_log_round_trip(self, baseline_report, tmp_path):
        import json

        path = baseline_report.write_response_log(tmp_path / "resp.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(baseline_report.responses)
        first = json.loads(lines[0])
        assert first["request_id"] == baseline_report.responses[0].request_id

    def test_latency_population_lives_in_report(self, baseline_report):
        # The report's latency section is the one copy of the completed
        # requests' latencies; telemetry carries spans and counters only.
        doc = baseline_report.as_dict(include_responses=False)
        assert doc["latency_ms"]["overall"]["count"] == len(
            baseline_report.completed
        )
        assert set(baseline_report.telemetry.as_dict()) == {
            "schema_version", "spans", "counters",
        }
