"""Tests for the shared traffic model: the spec, the request view of
the trace, and request-log I/O."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.serve.api import Priority, SolveRequest
from repro.serve.cluster.trace import generate_trace
from repro.serve.loadgen import (
    BURST_FACTOR,
    BURST_PERIOD_S,
    BURST_S,
    TRAFFIC_MIXES,
    LoadSpec,
    generate_requests,
    read_request_log,
    write_request_log,
)


class TestLoadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(rate_rps=-1.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(mix="mystery")

    @pytest.mark.parametrize("deadline_ms", [0.0, -5.0, math.nan])
    def test_rejects_non_positive_deadline(self, deadline_ms):
        with pytest.raises(ConfigurationError, match="deadline"):
            LoadSpec(deadline_ms=deadline_ms)

    def test_as_dict_keys(self):
        assert list(LoadSpec().as_dict()) == [
            "seed", "duration_s", "rate_rps", "mix", "deadline_ms",
        ]


class TestSharedModel:
    """``generate_requests`` is a row-for-row view of ``generate_trace``."""

    @pytest.mark.parametrize("mix", TRAFFIC_MIXES)
    def test_requests_match_trace_rows(self, mix):
        spec = LoadSpec(seed=4, duration_s=3.0, rate_rps=150.0, mix=mix)
        trace = generate_trace(spec)
        requests = generate_requests(spec)
        assert len(requests) == len(trace)
        assert [r.request_id for r in requests] == list(range(len(trace)))
        assert [r.source for r in requests] == [
            trace.sources[i] for i in trace.source_idx
        ]
        assert np.array_equal(
            [r.arrival_s for r in requests], trace.arrival_s
        )
        assert np.array_equal(
            [int(r.priority) for r in requests], trace.priority
        )
        assert [r.deadline_s for r in requests] == [
            None if math.isinf(d) else d for d in trace.deadline_s
        ]

    def test_bursty_rate_is_exact(self):
        # 8 seeds x 200 s at 20 rps: the on/off square wave must add
        # (BURST_FACTOR - 1) x the burst duty cycle on top of the base
        # rate.  A sampler that draws each gap at the rate in force when
        # the gap starts enters every burst late and falls ~7% short.
        rate, duration = 20.0, 200.0
        expected = rate * (
            1.0 + (BURST_FACTOR - 1.0) * BURST_S / BURST_PERIOD_S
        )
        assert expected == pytest.approx(35.0)
        realized = np.mean([
            len(generate_requests(LoadSpec(
                seed=seed, duration_s=duration, rate_rps=rate, mix="bursty",
            ))) / duration
            for seed in range(8)
        ])
        assert realized == pytest.approx(expected, rel=0.02)


class TestGenerateRequests:
    def test_same_seed_same_log(self):
        a = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        b = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        assert a == b

    def test_different_seed_different_log(self):
        a = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        b = generate_requests(LoadSpec(seed=4, duration_s=1.0))
        assert a != b

    def test_arrivals_ordered_and_bounded(self):
        requests = generate_requests(LoadSpec(seed=0, duration_s=2.0))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t < 2.0 for t in arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_rate_roughly_honored(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, rate_rps=100.0)
        )
        assert 350 <= len(requests) <= 650  # ~500 expected

    def test_repeat_heavy_concentrates_sources(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="repeat-heavy")
        )
        counts: dict[str, int] = {}
        for r in requests:
            counts[r.source] = counts.get(r.source, 0) + 1
        top = sorted(counts.values(), reverse=True)[:6]
        assert sum(top) / len(requests) > 0.6

    def test_uniform_spreads_sources(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="uniform")
        )
        counts: dict[str, int] = {}
        for r in requests:
            counts[r.source] = counts.get(r.source, 0) + 1
        top = sorted(counts.values(), reverse=True)[:6]
        assert sum(top) / len(requests) < 0.5

    def test_bursty_generates_more_than_flat(self):
        flat = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="repeat-heavy")
        )
        bursty = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="bursty")
        )
        assert len(bursty) > len(flat)

    def test_interactive_requests_carry_deadline(self):
        requests = generate_requests(LoadSpec(seed=0, duration_s=2.0))
        interactive = [
            r for r in requests if r.priority is Priority.INTERACTIVE
        ]
        assert interactive
        for r in interactive:
            assert r.deadline_s == pytest.approx(r.arrival_s + 0.1)
        for r in requests:
            if r.priority is not Priority.INTERACTIVE:
                assert r.deadline_s is None

    def test_explicit_sources_respected(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=1.0, sources=("Wa", "Li"))
        )
        assert {r.source for r in requests} <= {"Wa", "Li"}


class TestRequestLogRoundTrip:
    def test_round_trips_exactly(self, tmp_path):
        requests = generate_requests(LoadSpec(seed=5, duration_s=1.0))
        path = write_request_log(requests, tmp_path / "req.jsonl")
        assert read_request_log(path) == requests

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "req.jsonl"
        path.write_text(
            '{"request_id": 1, "source": "Li", "arrival_s": 0.2}\n'
            "\n"
            '{"request_id": 0, "source": "Wa", "arrival_s": 0.1}\n'
        )
        assert read_request_log(path) == [
            SolveRequest(request_id=0, source="Wa", arrival_s=0.1),
            SolveRequest(request_id=1, source="Li", arrival_s=0.2),
        ]


def _log_line(**fields):
    return json.dumps(fields)


class TestMalformedRequestLog:
    @pytest.mark.parametrize(
        "lines, needle",
        [
            (
                [
                    _log_line(request_id=0, source="Wa", arrival_s=0.1),
                    _log_line(request_id=0, source="Li", arrival_s=0.1),
                ],
                "duplicate request_id 0",
            ),
            ([_log_line(request_id=0, arrival_s=0.1)], "source"),
            ([_log_line(source="Wa", arrival_s=0.1)], "request_id"),
            ([_log_line(request_id=0, source="Wa")], "arrival_s"),
            (["{not json"], "not JSON"),
            (["[1, 2]"], "not a JSON object"),
            (
                [_log_line(request_id=0, source="Wa", arrival_s=-0.5)],
                "arrival_s",
            ),
            (
                [_log_line(request_id=0, source="Wa", arrival_s=math.inf)],
                "arrival_s",
            ),
            (
                [_log_line(request_id=0, source="Wa", arrival_s=math.nan)],
                "arrival_s",
            ),
            (
                [_log_line(
                    request_id=0, source="Wa", arrival_s=0.1,
                    priority="urgent",
                )],
                "priority",
            ),
            (
                [_log_line(
                    request_id=0, source="Wa", arrival_s=0.1,
                    deadline_s=math.nan,
                )],
                "deadline_s",
            ),
            (
                [_log_line(
                    request_id=0, source="Wa", arrival_s=0.1,
                    deadline_s=math.inf,
                )],
                "deadline_s",
            ),
            ([_log_line(request_id=True, source="Wa", arrival_s=0.1)],
             "request_id"),
            ([_log_line(request_id=1.5, source="Wa", arrival_s=0.1)],
             "request_id"),
            (['{"request_id": "3", "source": "Wa", "arrival_s": 0.1}'],
             "request_id"),
        ],
        ids=[
            "duplicate-id", "no-source", "no-id", "no-arrival", "non-json",
            "non-object", "negative-arrival", "inf-arrival", "nan-arrival",
            "bad-priority", "nan-deadline", "inf-deadline", "bool-id",
            "float-id", "string-id",
        ],
    )
    def test_rejected_with_line_number(self, tmp_path, lines, needle):
        path = tmp_path / "req.jsonl"
        path.write_text(
            _log_line(request_id=9, source="Wa", arrival_s=0.0) + "\n"
            + "\n".join(lines) + "\n"
        )
        with pytest.raises(ValidationError, match=needle) as info:
            read_request_log(path)
        assert f"{path}:{len(lines) + 1}:" in str(info.value)
