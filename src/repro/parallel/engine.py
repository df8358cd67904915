"""Worker-pool fan-out: the one way repro runs independent jobs.

Campaign solves, cold serving profiles, design-space points and lint
files all go through :func:`run_sharded`.  A caller supplies a
module-level *work function* ``work_fn(item, context) -> entry`` for one
:class:`WorkItem`; the engine owns everything around it:

- **per-item telemetry** — every item runs under its own
  :class:`~repro.telemetry.Telemetry` collector whose dict form rides
  back with the result and is merged into :attr:`ParallelOutcome.telemetry`,
- **fault isolation** — an exception raised by the work function becomes
  a structured ``"ExceptionType: message"`` error record for that item
  only,
- **cost-aware chunking** — items are greedily packed (longest-processing-
  time-first) into chunks balanced by estimated cost, so one heavy item
  does not serialize the tail of the run,
- **ordered reassembly** — results come back in item index order, so a
  pooled run reproduces the in-process run entry for entry,
- **lost workers** — a dead worker process (``BrokenProcessPool``)
  triggers a bounded number of pool restarts with singleton
  resubmission, after which every still-in-flight suspect is recorded as
  a ``WorkerLost`` error (results completed by surviving chunks are
  kept); only when the pool could never be started at all is the
  remainder finished in-process.

``workers=1`` (or a single item) runs the same chunk runner in this
process and never builds an executor.  The engine records no telemetry
counters of its own: each caller counts its failures from the results
under its own names.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.parallel.cost import estimate_cost, source_label
from repro.telemetry import Telemetry

__all__ = [
    "DEFAULT_OVERSUBSCRIPTION",
    "MAX_ITEM_ATTEMPTS",
    "ItemResult",
    "ParallelOutcome",
    "WorkItem",
    "estimate_cost",  # re-exported from repro.parallel.cost
    "run_sharded",
    "shard_by_cost",
    "source_label",  # re-exported from repro.parallel.cost
]

DEFAULT_OVERSUBSCRIPTION = 4
"""Chunks per worker in the first scheduling epoch.

More chunks than workers lets the pool rebalance dynamically when cost
estimates are off; fewer, larger chunks amortize task overhead.  Four is
a conventional middle ground.
"""

MAX_ITEM_ATTEMPTS = 2
"""Pool-loss retries per item before it is recorded as a failure."""

@dataclass(frozen=True)
class WorkItem:
    """One schedulable job: a source plus the seed derived for it."""

    index: int
    source: Any  # whatever the work function takes; must pickle
    seed: int
    cost: float


@dataclass(frozen=True)
class ItemResult:
    """What the engine reports back for one item."""

    index: int
    entry: Any | None  # the work function's return value on success
    error: str | None
    telemetry: dict[str, Any]


@dataclass
class ParallelOutcome:
    """Ordered results plus engine-level statistics.

    ``workers`` is 1 when the items ran in-process without a pool.
    """

    results: list[ItemResult]
    telemetry: Telemetry
    workers: int
    pool_restarts: int = 0
    in_process_items: int = 0
    abandoned_items: int = 0
    chunks: int = 0

    @property
    def failures(self) -> int:
        """Items that ended in an error record (lost workers included)."""
        return sum(1 for result in self.results if result.error is not None)


def shard_by_cost(
    items: Sequence[WorkItem], n_chunks: int
) -> list[list[WorkItem]]:
    """Pack items into ``n_chunks`` cost-balanced chunks (LPT greedy).

    Items are assigned heaviest-first to the currently lightest chunk,
    then each chunk is restored to index order.  Empty chunks are
    dropped, so the result has at most ``n_chunks`` entries.
    """
    n_chunks = max(1, min(int(n_chunks), len(items)))
    chunks: list[list[WorkItem]] = [[] for _ in range(n_chunks)]
    loads = [0.0] * n_chunks
    for item in sorted(items, key=lambda it: (-it.cost, it.index)):
        target = loads.index(min(loads))
        chunks[target].append(item)
        loads[target] += item.cost
    packed = [sorted(chunk, key=lambda it: it.index) for chunk in chunks]
    return [chunk for chunk in packed if chunk]


def run_chunk(
    items: Sequence[WorkItem],
    work_fn: Callable[[WorkItem, Any], Any],
    context: Any,
) -> list[ItemResult]:
    """Run ``work_fn`` over a chunk, one telemetry collector per item.

    Executes in the pool's worker processes and in-process alike; any
    exception becomes that item's error record so one crashing job
    cannot take down its chunk-mates.
    """
    results: list[ItemResult] = []
    for item in items:
        collector = Telemetry()
        entry, error = None, None
        with collector.activate():
            try:
                entry = work_fn(item, context)
            except Exception as exc:  # noqa: BLE001 — fault isolation
                error = f"{type(exc).__name__}: {exc}"
        results.append(
            ItemResult(item.index, entry, error, collector.as_dict())
        )
    return results


def _lost_worker_result(index: int, attempts: int) -> ItemResult:
    return ItemResult(
        index=index,
        entry=None,
        error=(
            "WorkerLost: worker process died while this item was in "
            f"flight ({attempts} attempts)"
        ),
        telemetry={},
    )


def run_sharded(
    items: Sequence[WorkItem],
    context: Any,
    work_fn: Callable[[WorkItem, Any], Any],
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    max_pool_restarts: int = 2,
    executor_factory: Callable[[int], Any] | None = None,
) -> ParallelOutcome:
    """Run ``work_fn(item, context)`` for every item; always a full outcome.

    ``work_fn`` must be a picklable module-level function (lint rule
    REP008 proves it); ``context`` is shipped to every chunk.
    ``workers`` below 1 is a :class:`ConfigurationError`.
    ``executor_factory`` exists for tests and fault injection; production
    use leaves it ``None`` for ``ProcessPoolExecutor``.  ``chunk_size``
    caps items per chunk; by default chunk count is
    ``workers * DEFAULT_OVERSUBSCRIPTION``.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    pooled = workers > 1 and len(items) > 1
    telemetry = Telemetry()
    outcome = ParallelOutcome(
        results=[], telemetry=telemetry, workers=workers if pooled else 1
    )
    if executor_factory is None:
        def executor_factory(n: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=n)

    pending: dict[int, WorkItem] = {item.index: item for item in items}
    attempts: dict[int, int] = {item.index: 0 for item in items}
    collected: dict[int, ItemResult] = {}
    epoch = 0
    pool_ever_broke = False

    def abandon(index: int) -> None:
        pending.pop(index)
        collected[index] = _lost_worker_result(index, attempts[index])
        outcome.abandoned_items += 1

    while pooled and pending and outcome.pool_restarts <= max_pool_restarts:
        if epoch == 0:
            if chunk_size is not None:
                n_chunks = -(-len(pending) // max(1, int(chunk_size)))
            else:
                n_chunks = workers * DEFAULT_OVERSUBSCRIPTION
            chunks = shard_by_cost(list(pending.values()), n_chunks)
        else:
            # Singleton resubmission localizes blame for the pool loss.
            chunks = [[item] for item in pending.values()]
        outcome.chunks += len(chunks)
        epoch += 1
        broke = False
        try:
            executor = executor_factory(workers)
        except OSError:
            break  # cannot start workers at all → in-process fallback
        try:
            not_done = {
                executor.submit(run_chunk, tuple(chunk), work_fn, context)
                for chunk in chunks
            }
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        batch = future.result()
                    except BrokenProcessPool:
                        broke = True
                        continue
                    for result in batch:
                        collected[result.index] = result
                        pending.pop(result.index, None)
                        telemetry.merge(result.telemetry)
                if broke:
                    break
        finally:
            executor.shutdown(wait=not broke, cancel_futures=True)
        if not broke:
            break
        pool_ever_broke = True
        outcome.pool_restarts += 1
        for index in pending:
            attempts[index] += 1
        for index in [i for i in pending if attempts[i] >= MAX_ITEM_ATTEMPTS]:
            abandon(index)

    if pending and pool_ever_broke:
        # Restart budget exhausted while these items were in flight:
        # every one of them is a crash suspect (it shared its last pool
        # with a breakage), so retrying it in this process would risk
        # the parent.  Record each as a WorkerLost error; results
        # already completed by surviving chunks stay collected.
        for index in sorted(pending):
            abandon(index)
    elif pending:
        # No pool: one worker, a single item, or the pool never started
        # (OSError before any submission), so the items are innocent.
        # Finish them in this process.
        leftovers = sorted(pending.values(), key=lambda it: it.index)
        outcome.in_process_items += len(leftovers)
        for result in run_chunk(leftovers, work_fn, context):
            collected[result.index] = result
            telemetry.merge(result.telemetry)

    outcome.results = [collected[index] for index in sorted(collected)]
    return outcome
