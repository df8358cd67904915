"""Cold-solve profiling: one real Acamar solve per unique structure.

The serving simulator charges *modeled* device time, so each distinct
problem source needs a ground-truth profile: which solver sequence the
decision loops pick, how many iterations the final attempt runs, and the
cost model's per-attempt compute latency.  :func:`build_profiles` runs
:func:`profile_source` over every unique source through
:func:`repro.parallel.run_sharded` (pool restarts, fault isolation and
ordered reassembly included) for both serving tiers.

:func:`price_batch` turns a profile into the device time one
micro-batch occupies a slot.  It is the only place the serving
simulator's charge rules live, for one fleet and a cluster alike.

Host-side analysis latency is modeled with explicit constants below:
the Matrix Structure unit reads every stored entry (dominance sums plus
the CSR-vs-CSC comparison), so its cost scales with NNZ; the Fine-
Grained Reconfiguration unit walks row sets, so its cost scales with row
count.  These charges are what a fingerprint-cache hit skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.parallel import WorkItem, estimate_cost, run_sharded
from repro.placement import (
    CPU_ASSIST_ROUNDTRIP_SECONDS,
    GPU,
    estimate_gpu_service,
    structural_class_of,
)
from repro.serve.cache import CacheEntry, plan_signature, structure_fingerprint
from repro.telemetry import Telemetry

ANALYSIS_SECONDS_PER_NNZ = 25e-9
"""Host time per stored entry for the structure checks (Eq. 1 sums plus
the CSR/CSC symmetry comparison)."""

PLANNING_SECONDS_PER_ROW = 10e-9
"""Host time per matrix row for the Row Length Trace, MSID chain and
unroll quantization."""

DISPATCH_OVERHEAD_SECONDS = 5e-6
"""Fixed per-request dispatch cost (queue pop, fingerprint lookup,
descriptor DMA) charged on every served request, hit or miss."""

BATCH_MEMBER_DISPATCH_SECONDS = 1e-6
"""Dispatch cost of the second and later members of a fingerprint
micro-batch.  The batch's first member pays the full
:data:`DISPATCH_OVERHEAD_SECONDS` (descriptor setup, fingerprint lookup);
members riding the same configured slot reuse the descriptor and the
lookup and pay only the queue pop."""

DRAIN_LIMIT_FACTOR = 20.0
"""Both serving tiers refuse to run past ``duration * factor`` draining a
queue that cannot empty; survivors are shed with an explicit outcome."""


@dataclass(frozen=True)
class SolveProfile:
    """Deterministic serving profile of one problem source.

    The GPU fields price the same solve on a cuSPARSE SpMV tenant (see
    :mod:`repro.placement.gpu_cost`): ``gpu_warm_service_s`` is the
    roofline-plus-launch cost of the final attempt's iterations,
    ``gpu_transfer_s`` the PCIe structure upload a residency miss pays
    instead of an ICAP configuration load.  ``structural_class`` is the
    Table-II row the source belongs to.  All are plain profile scalars
    so placement decisions stay byte-deterministic.
    """

    label: str
    fingerprint: str
    plan_signature: str
    n: int
    nnz: int
    converged: bool
    solver_sequence: tuple[str, ...]
    iterations: int
    attempt_compute_s: tuple[float, ...]
    solver_swap_s: float
    analysis_s: float
    structural_class: str = "general"
    gpu_warm_service_s: float = 0.0
    gpu_transfer_s: float = 0.0

    @property
    def final_compute_s(self) -> float:
        return self.attempt_compute_s[-1] if self.attempt_compute_s else 0.0

    @property
    def warm_service_s(self) -> float:
        """Device seconds when analysis and solver choice come from cache."""
        return self.final_compute_s

    def cache_entry(self) -> CacheEntry:
        return CacheEntry(
            fingerprint=self.fingerprint,
            plan_signature=self.plan_signature,
            solver_sequence=self.solver_sequence,
            converged=self.converged,
            iterations=self.iterations,
            attempt_compute_s=self.attempt_compute_s,
            analysis_s=self.analysis_s,
        )


class BatchPrice(NamedTuple):
    """Modeled seconds one micro-batch occupies its slot.

    Member ``i`` (0-based) of a batch starting at ``start`` finishes at
    ``start + load_s * [residency miss] + head_s + i * member_s``.
    """

    load_s: float
    head_s: float
    member_s: float


def price_batch(
    profile: SolveProfile, device_class: str, *, cold: bool, cpu_assist: bool
) -> BatchPrice:
    """Price one micro-batch of ``profile`` on a ``device_class`` slot.

    The single source of the serving tiers' device-time rules:

    * **Residency miss.**  An FPGA slot pays an ICAP solver-region load
      (``solver_swap_s``); a GPU tenant pays the PCIe structure upload
      (``gpu_transfer_s``).
    * **Head.**  The first member pays full dispatch plus, on a cache
      miss (``cold``), the host structure analysis and the whole
      fallback chain: on an FPGA every attempt plus one solver swap per
      Solver Modifier firing; on a GPU the warm cuSPARSE cost scaled by
      the attempt/final ratio the FPGA profile measured (iteration
      driven, hence device independent).  With ``cpu_assist`` the cold
      analysis runs on the host assist tier and the accelerator pays
      only the offload round-trip.  A warm head pays the final attempt.
    * **Members.**  Later members reuse the head's descriptor and
      configured slot: member dispatch plus the final attempt.
    """
    if device_class == GPU:
        load = profile.gpu_transfer_s
        warm = profile.gpu_warm_service_s
        final = profile.final_compute_s
        chain = sum(profile.attempt_compute_s) / final if final > 0.0 else 1.0
        cold_service = profile.analysis_s + chain * warm
    else:
        load = profile.solver_swap_s
        warm = profile.final_compute_s
        swaps = max(0, len(profile.attempt_compute_s) - 1)
        cold_service = (
            profile.analysis_s
            + sum(profile.attempt_compute_s)
            + swaps * profile.solver_swap_s
        )
    head = cold_service if cold else warm
    if cold and cpu_assist:
        head = head - profile.analysis_s + CPU_ASSIST_ROUNDTRIP_SECONDS
    return BatchPrice(
        load_s=load,
        head_s=DISPATCH_OVERHEAD_SECONDS + head,
        member_s=BATCH_MEMBER_DISPATCH_SECONDS + warm,
    )


def build_profile(problem: Any, config: AcamarConfig) -> SolveProfile:
    """Run the real decision loops + cost model for one problem."""
    from repro.core import Acamar
    from repro.fpga import PerformanceModel

    acamar = Acamar(config)
    model = PerformanceModel()
    with tm.span("serve.profile.solve"):
        result = acamar.solve(problem.matrix, problem.b)
    with tm.span("serve.profile.cost_model"):
        latency = model.acamar_latency(problem.matrix, result)
    matrix = problem.matrix
    gpu = estimate_gpu_service(
        matrix.row_lengths(), result.final.iterations
    )
    return SolveProfile(
        label=problem.name,
        fingerprint=structure_fingerprint(matrix),
        plan_signature=plan_signature(result.plan),
        n=int(matrix.n_rows),
        nnz=int(matrix.nnz),
        converged=result.converged,
        solver_sequence=result.solver_sequence,
        iterations=result.final.iterations,
        attempt_compute_s=tuple(
            a.compute_seconds for a in latency.attempts
        ),
        solver_swap_s=model.reconfig.solver_swap_seconds(),
        analysis_s=(
            ANALYSIS_SECONDS_PER_NNZ * matrix.nnz
            + PLANNING_SECONDS_PER_ROW * matrix.n_rows
        ),
        structural_class=structural_class_of(result.solver_sequence),
        gpu_warm_service_s=gpu.warm_service_s,
        gpu_transfer_s=gpu.transfer_s,
    )


def profile_source(item: WorkItem, config: AcamarConfig) -> SolveProfile:
    """``run_sharded`` work function: cold-profile one problem source."""
    from repro.campaign import resolve_source

    with tm.span("serve.profile.resolve"):
        problem = resolve_source(item.source, item.seed)
    return build_profile(problem, config)


def build_profiles(
    sources: Sequence[str],
    config: AcamarConfig,
    workers: int = 1,
    collector: Telemetry | None = None,
) -> dict[str, "SolveProfile | str"]:
    """Profile every unique source once (real solves, memoized).

    ``workers`` fans profiling out through :func:`run_sharded` with
    :func:`profile_source` as the work function.  A profiling failure
    (or a lost worker) maps the source to its error string — requests
    for it will be answered with ``FAILED`` responses rather than
    sinking the run — and counts ``serve.profile_failures``.
    """
    unique = list(dict.fromkeys(sources))
    items = [
        WorkItem(
            index=index,
            source=source,
            seed=1,  # a .mtx source's right-hand side; keys fix their own
            cost=estimate_cost(source),
        )
        for index, source in enumerate(unique)
    ]
    outcome = run_sharded(
        items, config, work_fn=profile_source, workers=workers
    )
    telemetry = outcome.telemetry
    if outcome.failures:
        telemetry.count("serve.profile_failures", outcome.failures)
    if collector is not None:
        collector.merge(telemetry)
    return {
        str(source): result.entry if result.entry is not None
        else result.error
        for source, result in zip(unique, outcome.results)
    }
