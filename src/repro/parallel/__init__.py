"""Parallel fan-out: worker-pool sharding with fault isolation.

Every batch of independent jobs in repro — campaign solves, cold serving
profiles, design-space points, lint files — runs through
:func:`run_sharded`: the software analogue of the paper's point that
end-to-end throughput comes from overlapping *independent* solves across
compute units.
"""

from repro.parallel.cost import estimate_cost, source_label
from repro.parallel.engine import (
    ItemResult,
    ParallelOutcome,
    WorkItem,
    run_sharded,
    shard_by_cost,
)

__all__ = [
    "ItemResult",
    "ParallelOutcome",
    "WorkItem",
    "estimate_cost",
    "run_sharded",
    "shard_by_cost",
    "source_label",
]
