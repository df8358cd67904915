"""Admission and expiry of the one serving simulator.

A fleet admits each epoch's arrivals against the room left in its
bounded queue (tail-drop: the newest overflow is shed, whatever its
priority) and sweeps lapsed deadlines at epoch boundaries.  Runs here
use one fleet, ``FLEET_EPOCH_S`` (50 ms) epochs and synthetic profiles.
"""

import pytest

from repro.errors import ConfigurationError
from repro.serve.api import Outcome, Priority
from repro.serve.cluster.service import ClusterConfig
from tests.serve.synthetic import by_id, outcomes, serve, synthetic

# Head service of a cold batch: a 5 ms load plus ~56 ms of work, so the
# one slot stays busy across the first epoch boundary (t = 0.05).
LONG = {"S": synthetic("S", attempts=(0.055,))}


class TestAdmission:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(queue_capacity=0)

    def test_admits_under_capacity(self):
        report = serve(
            [(0.0, "S"), (0.01, "S"), (0.02, "S")], LONG,
            slots_per_fleet=1, queue_capacity=8,
        )
        assert outcomes(report) == ["completed"] * 3
        assert report.shed_count == 0
        assert report.unaccounted == 0

    def test_sheds_when_full_and_not_outranking(self):
        # Room for two: the two newest arrivals are shed, and an
        # interactive arrival outranks nothing already queued.
        report = serve(
            [
                (0.0, "S"),
                (0.01, "S", Priority.BEST_EFFORT),
                (0.02, "S"),
                (0.03, "S", Priority.INTERACTIVE, 10.0),
            ],
            LONG, slots_per_fleet=1, queue_capacity=2,
        )
        assert outcomes(report) == [
            "completed", "completed", "shed_overflow", "shed_overflow",
        ]
        responses = by_id(report)
        assert responses[3].outcome is Outcome.SHED
        assert responses[3].detail == "queue_full"
        assert report.as_dict(include_responses=False)["queue"][
            "shed_full"
        ] == 2

    def test_expire_removes_lapsed_only(self):
        report = serve(
            [
                (0.0, "S"),
                (0.01, "S", Priority.INTERACTIVE, 0.04),
                (0.02, "S", Priority.INTERACTIVE, 10.0),
                (0.03, "S"),
            ],
            LONG, slots_per_fleet=1,
        )
        assert outcomes(report) == [
            "completed", "expired", "completed", "completed",
        ]
        lapsed = by_id(report)[1]
        assert lapsed.outcome is Outcome.EXPIRED
        assert lapsed.finish_s == 0.04
        assert lapsed.detail


class TestDeadlineBoundary:
    def test_deadline_equal_to_now_expires_in_queue(self):
        # Closed boundary: at the t = 0.05 sweep a deadline of exactly
        # 0.05 has lapsed, one a nanosecond later has not — that request
        # is served once the slot frees (~0.062 s).
        report = serve(
            [
                (0.0, "S"),
                (0.01, "S", Priority.INTERACTIVE, 0.05),
                (0.02, "S", Priority.INTERACTIVE, 0.050000001),
            ],
            LONG, slots_per_fleet=1,
        )
        assert outcomes(report) == ["completed", "expired", "completed"]
        assert by_id(report)[2].finish_s > 0.050000001
