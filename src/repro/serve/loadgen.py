"""The traffic model both serving tiers share.

Serving behaviour is governed by the *shape* of traffic — arrival
burstiness, how concentrated the dataset mix is, how tight deadlines
run — and one :class:`LoadSpec` describes all three:

- **arrival process**: Poisson arrivals at ``rate_rps``; the ``bursty``
  mix modulates them with a fixed square wave (``BURST_FACTOR``× the
  base rate for ``BURST_S`` out of every ``BURST_PERIOD_S``), the
  classic on/off overload model,
- **dataset mix**: named mixes over the Table II registry — ``uniform``
  spreads requests evenly (cache-hostile), ``repeat-heavy``
  concentrates 80% of traffic on a small hot set (cache-friendly, the
  regime Acamar's amortized analysis targets), ``bursty`` is the
  repeat-heavy mix under burst modulation,
- **priority/deadline mix**: a fixed fraction of traffic is interactive
  with a relative deadline; the rest splits batch/best-effort.

The one arrival sampler is the vectorized
:func:`repro.serve.cluster.trace.generate_trace`;
:func:`generate_requests` is a per-request view of that trace (what
single-fleet serving and its request logs work with), so a seed means
the same traffic at either tier.  Logs round-trip through JSONL
(:func:`write_request_log` / :func:`read_request_log`) for replay and
offline analysis; the reader rejects any log the simulator could not
account for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.serve.api import Priority, SolveRequest

HOT_SET_SIZE = 6
HOT_SET_SHARE = 0.8
"""``repeat-heavy`` sends this share of traffic to the first
``HOT_SET_SIZE`` registry keys (weighted geometrically within the set)."""

BURST_FACTOR = 4.0
BURST_S = 0.25
BURST_PERIOD_S = 1.0
"""Burst shape of the ``bursty`` mix: ``BURST_FACTOR``× the base rate
for the first ``BURST_S`` of every ``BURST_PERIOD_S``."""

PRIORITY_SHARES = ((Priority.INTERACTIVE, 0.3), (Priority.BATCH, 0.5),
                   (Priority.BEST_EFFORT, 0.2))

TRAFFIC_MIXES = ("uniform", "repeat-heavy", "bursty")

_LOG_KEYS = ("request_id", "source", "arrival_s")
"""Keys every request-log line must carry."""


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of one synthetic traffic run, at either serving tier."""

    seed: int = 0
    duration_s: float = 5.0
    rate_rps: float = 120.0
    mix: str = "repeat-heavy"
    deadline_ms: float = 100.0
    sources: tuple[str, ...] = ()  # empty → the Table II registry

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be > 0 s, got {self.duration_s}"
            )
        if self.rate_rps <= 0:
            raise ConfigurationError(
                f"rate must be > 0 rps, got {self.rate_rps}"
            )
        if self.mix not in TRAFFIC_MIXES:
            raise ConfigurationError(
                f"unknown traffic mix {self.mix!r}; "
                f"expected one of {TRAFFIC_MIXES}"
            )
        if not self.deadline_ms > 0:
            raise ConfigurationError(
                f"deadline must be > 0 ms, got {self.deadline_ms}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "rate_rps": self.rate_rps,
            "mix": self.mix,
            "deadline_ms": self.deadline_ms,
        }


def source_weights(mix: str, n_keys: int) -> np.ndarray:
    """Per-source probability weights of traffic mix ``mix``.

    Drawn from by the trace generator and read by the design-space
    explorer, which weights per-source work by arrival probability.
    """
    if mix not in TRAFFIC_MIXES:
        raise ConfigurationError(
            f"unknown traffic mix {mix!r}; expected one of {TRAFFIC_MIXES}"
        )
    if mix == "uniform":
        return np.full(n_keys, 1.0 / n_keys)
    # repeat-heavy / bursty: geometric weights over the hot set, the
    # remaining share spread over the tail.
    hot = min(HOT_SET_SIZE, n_keys)
    weights = np.zeros(n_keys)
    hot_weights = 0.5 ** np.arange(hot)
    weights[:hot] = HOT_SET_SHARE * hot_weights / hot_weights.sum()
    tail = n_keys - hot
    if tail:
        weights[hot:] = (1.0 - HOT_SET_SHARE) / tail
    else:
        weights[:hot] /= weights[:hot].sum()
    return weights


def generate_requests(spec: LoadSpec) -> list[SolveRequest]:
    """The request log for ``spec``: one request per row of its trace.

    A view of :func:`repro.serve.cluster.trace.generate_trace` — row
    ``i`` becomes request id ``i`` and a ``+inf`` deadline becomes
    ``None`` — so both serving tiers see the same traffic for a seed.
    """
    # Imported here: the trace module imports this one.
    from repro.serve.cluster.trace import generate_trace

    trace = generate_trace(spec)
    return [
        SolveRequest(
            request_id=request_id,
            source=trace.sources[source_idx],
            arrival_s=arrival,
            priority=Priority(priority),
            deadline_s=None if deadline == math.inf else deadline,
        )
        for request_id, (source_idx, arrival, priority, deadline) in
        enumerate(zip(
            trace.source_idx.tolist(),
            trace.arrival_s.tolist(),
            trace.priority.tolist(),
            trace.deadline_s.tolist(),
        ))
    ]


def write_request_log(
    requests: Sequence[SolveRequest], path: str | Path
) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for request in requests:
            fh.write(json.dumps(request.as_dict(), sort_keys=True) + "\n")
    return path


def read_request_log(path: str | Path) -> list[SolveRequest]:
    """Parse a JSONL request log, arrival-ordered.

    Every non-blank line must be a JSON object with an integer
    ``request_id``, a ``source`` and a finite, non-negative
    ``arrival_s``; a ``deadline_s``, when present, must be finite (a NaN
    deadline never lapses).  Ids must be unique: responses are matched
    to requests by id, so a duplicate would silently lose a request.
    Anything else raises :class:`~repro.errors.ValidationError` naming
    the line.
    """
    requests: list[SolveRequest] = []
    seen: set[int] = set()
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: not JSON ({exc.msg})") from None
        if not isinstance(payload, dict):
            raise ValidationError(f"{where}: not a JSON object")
        missing = [key for key in _LOG_KEYS if key not in payload]
        if missing:
            raise ValidationError(
                f"{where}: missing key(s) {', '.join(missing)}"
            )
        request_id = payload["request_id"]
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            raise ValidationError(
                f"{where}: request_id must be an integer, got {request_id!r}"
            )
        try:
            request = SolveRequest.from_dict(payload)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from None
        if not (math.isfinite(request.arrival_s) and request.arrival_s >= 0):
            raise ValidationError(
                f"{where}: arrival_s must be finite and >= 0, "
                f"got {request.arrival_s}"
            )
        if request.deadline_s is not None and not math.isfinite(
            request.deadline_s
        ):
            raise ValidationError(
                f"{where}: deadline_s must be finite, got {request.deadline_s}"
            )
        if request.request_id in seen:
            raise ValidationError(
                f"{where}: duplicate request_id {request.request_id}"
            )
        seen.add(request.request_id)
        requests.append(request)
    requests.sort(key=lambda r: (r.arrival_s, r.request_id))
    return requests
