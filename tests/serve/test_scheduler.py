"""Micro-batch formation, placement and cost charging in the one
serving simulator, driven through one fleet with synthetic profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.api import Outcome, Priority
from repro.serve.cluster.service import DeviceFaultEvent
from repro.serve.profile import (
    BATCH_MEMBER_DISPATCH_SECONDS,
    DISPATCH_OVERHEAD_SECONDS,
)
from repro.serve.service import fleet_config
from tests.serve.synthetic import SWAP_S, by_id, outcomes, serve, synthetic

PROFILES = {
    "A": synthetic("A", signature="sig-shared"),
    "B": synthetic("B", signature="sig-shared"),
    "C": synthetic("C", signature="sig-other"),
    "bad": "ValueError: no good",
}


def run(rows, **config):
    config = {"slots_per_fleet": 2, "max_batch": 4, **config}
    return serve(rows, dict(PROFILES), **config)


def batch_ids(report):
    return {r.request_id: r.batch_id for r in report.completed}


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            fleet_config(max_batch=0)
        with pytest.raises(ConfigurationError):
            fleet_config(batch_fill_ms=-1.0)


class TestGrouping:
    def test_same_fingerprint_one_batch(self):
        report = run([(0.0, "A"), (0.0, "A"), (0.0, "C")])
        batches = batch_ids(report)
        assert batches[0] == batches[1]
        assert batches[2] != batches[0]

    def test_failed_profile_isolated_and_reported(self):
        report = run([(0.0, "A"), (0.0, "bad")])
        responses = by_id(report)
        assert responses[0].outcome is Outcome.COMPLETED
        assert responses[1].outcome is Outcome.FAILED
        assert "ValueError" in responses[1].detail
        assert report.unaccounted == 0

    def test_max_batch_splits_group(self):
        report = run([(0.0, "A")] * 3, max_batch=2)
        assert sorted(report.cluster.batch_log.size.tolist()) == [1, 2]
        assert outcomes(report) == ["completed"] * 3

    def test_batch_window_holds_back_small_batch_groups(self):
        report = run([(0.0, "A")], batch_fill_ms=5.0)
        assert report.cluster.batch_log.start_s.tolist() == [5e-3]

    def test_interactive_head_dispatches_immediately(self):
        # The rule both tiers share: an interactive head departs as
        # soon as a slot is free, without waiting out the fill window.
        report = run(
            [(0.0, "A", Priority.INTERACTIVE, 1.0)], batch_fill_ms=5.0
        )
        assert report.cluster.batch_log.start_s.tolist() == [0.0]


class TestCostCharging:
    def test_cold_batch_head_pays_full_later_members_amortize(self):
        prof = PROFILES["A"]
        report = run([(0.0, "A"), (0.0, "A")])
        responses = by_id(report)
        # First placement loads the slot, then analysis, both attempts
        # and one Solver Modifier swap.
        assert responses[0].service_s == pytest.approx(
            SWAP_S + DISPATCH_OVERHEAD_SECONDS + prof.analysis_s
            + sum(prof.attempt_compute_s) + SWAP_S
        )
        # Later members of a fingerprint micro-batch reuse the head's
        # descriptor and lookup: amortized dispatch, warm device time.
        assert responses[1].service_s == pytest.approx(
            BATCH_MEMBER_DISPATCH_SECONDS + prof.warm_service_s
        )
        # Amortized members of a cold batch are still cache *misses*.
        assert not responses[0].cache_hit
        assert not responses[1].cache_hit

    def test_warm_batch_members_are_cache_hits(self):
        report = run([(0.0, "A"), (0.1, "A")])
        second = by_id(report)[1]
        assert second.cache_hit
        assert second.service_s == pytest.approx(
            DISPATCH_OVERHEAD_SECONDS + PROFILES["A"].warm_service_s
        )

    def test_no_cache_reloads_configuration_every_batch(self):
        report = run(
            [(0.0, "A"), (0.1, "A")], slots_per_fleet=1, cache_capacity=0
        )
        assert report.cluster.fleets[0].config_loads == 2
        assert all(not r.cache_hit for r in report.responses)

    def test_affinity_skips_configuration_load_on_resident_slot(self):
        # Same plan signature, different fingerprint: slot 0 is resident.
        report = run([(0.0, "A"), (0.1, "B")])
        assert report.cluster.fleets[0].config_loads == 1
        assert report.cluster.batch_log.slot.tolist() == [0, 0]

    def test_tenancy_bounds_concurrency(self):
        # One slot: the incompatible second batch waits for the first.
        report = run([(0.0, "A"), (0.0, "C")], slots_per_fleet=1)
        log = report.cluster.batch_log
        assert len(log) == 2
        assert log.start_s[1] >= log.end_s[0]


class TestDeviceFaults:
    """Modeled slot outages through the simulator's fault seam."""

    @staticmethod
    def faults(*events):
        return tuple(DeviceFaultEvent(*event) for event in events)

    def test_outage_delays_placement_until_slot_recovers(self):
        # (at_s, slot, outage_s): slot 0 is down for [0, 0.1).
        report = run(
            [(0.01, "A")], slots_per_fleet=1,
            device_faults=self.faults((0.0, 0, 0.1)),
        )
        assert report.cluster.batch_log.start_s.tolist() == [0.1]
        assert outcomes(report) == ["completed"]
        assert report.cluster.fleets[0].slot_outages == [1]

    def test_outage_evicts_resident_configuration(self):
        rows = [(0.01, "A"), (0.6, "A")]
        calm = run(rows, slots_per_fleet=1)
        faulted = run(
            rows, slots_per_fleet=1,
            device_faults=self.faults((0.5, 0, 0.01)),
        )
        assert calm.cluster.fleets[0].config_loads == 1
        assert faulted.cluster.fleets[0].config_loads == 2

    def test_faults_apply_once_and_in_order(self):
        # Given out of order; the 0.1 s outage is what delays the
        # request arriving during it.
        report = run(
            [(0.105, "A")], slots_per_fleet=1,
            device_faults=self.faults((0.2, 0, 0.01), (0.1, 0, 0.01)),
        )
        assert report.cluster.batch_log.start_s.tolist() == [0.11]
        assert report.cluster.fleets[0].slot_outages == [2]
        assert report.cluster.counters["serve.device_faults"] == 2
        assert report.as_dict(include_responses=False)["fleet"][
            "device_faults"
        ] == 2

    def test_negative_outage_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceFaultEvent(0.0, 0, -1.0)
