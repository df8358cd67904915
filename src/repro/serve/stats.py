"""Latency-summary statistics for serving reports.

The serving simulator summarizes each latency population — overall and
per priority class — as ``{count, mean, p50, p90, p99, max}``; the
single-fleet and cluster reports publish the same section, so a
dashboard keyed on that shape reads either one.

Values are rounded to 6 decimals (microsecond precision on
millisecond-scale numbers) so the JSON forms stay byte-stable across
runs and machines.
"""

from __future__ import annotations

from typing import Any

import numpy as np


def format_latency_ms(value: Any) -> str:
    """Render one summary statistic for human-facing summary lines.

    Null statistics (empty populations) render as ``n/a`` so idle-fleet
    summaries read as "no data" instead of "0.000 ms".
    """
    if value is None:
        return "n/a"
    return f"{float(value):.3f}"


def latency_summary_ms_array(
    values: "np.ndarray", *, consume: bool = False
) -> dict[str, Any]:
    """Percentile summary of a latency population (milliseconds).

    An empty population reports ``count: 0`` with null statistics — an
    idle fleet's p50/p99 must be distinguishable from a fleet that
    genuinely served in zero milliseconds (a 0.0 sentinel would make
    zero-completion configurations look infinitely fast to capacity
    planning and frontier extraction).  ``numpy.percentile``'s default
    linear interpolation matches :func:`repro.telemetry.percentile`.

    With ``consume=True`` the input array is partitioned in place (its
    element *order* is destroyed, the multiset of values is preserved)
    instead of copied — callers holding a population-sized array they
    no longer need in order pass this to skip a full-size allocation.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {
            "count": 0,
            "mean": None,
            "p50": None,
            "p90": None,
            "p99": None,
            "max": None,
        }
    p50, p90, p99 = np.percentile(
        arr, [50.0, 90.0, 99.0], overwrite_input=consume
    )
    return {
        "count": int(arr.size),
        "mean": round(float(arr.mean()), 6),
        "p50": round(float(p50), 6),
        "p90": round(float(p90), 6),
        "p99": round(float(p99), 6),
        "max": round(float(arr.max()), 6),
    }
