"""Unit tests for :func:`repro.serve.profile.price_batch`."""

import pytest

from repro.placement import CPU_ASSIST_ROUNDTRIP_SECONDS, FPGA, GPU
from repro.serve.profile import (
    BATCH_MEMBER_DISPATCH_SECONDS,
    DISPATCH_OVERHEAD_SECONDS,
    SolveProfile,
    price_batch,
)

PROFILE = SolveProfile(
    label="p",
    fingerprint="fp",
    plan_signature="sig",
    n=100,
    nnz=500,
    converged=True,
    solver_sequence=("cg", "bicg", "bicgstab"),
    iterations=10,
    attempt_compute_s=(1e-3, 2e-3, 4e-4),
    solver_swap_s=5e-3,
    analysis_s=1e-3,
    gpu_warm_service_s=3e-4,
    gpu_transfer_s=2e-4,
)


def test_fpga_cold_head_pays_analysis_chain_and_one_swap_per_fallback():
    price = price_batch(PROFILE, FPGA, cold=True, cpu_assist=False)
    assert price.load_s == PROFILE.solver_swap_s
    assert price.head_s == pytest.approx(
        DISPATCH_OVERHEAD_SECONDS + 1e-3 + (1e-3 + 2e-3 + 4e-4) + 2 * 5e-3
    )
    assert price.member_s == pytest.approx(
        BATCH_MEMBER_DISPATCH_SECONDS + 4e-4
    )


def test_gpu_cold_head_scales_warm_cost_by_attempt_chain():
    price = price_batch(PROFILE, GPU, cold=True, cpu_assist=False)
    chain = (1e-3 + 2e-3 + 4e-4) / 4e-4
    assert price.load_s == PROFILE.gpu_transfer_s
    assert price.head_s == pytest.approx(
        DISPATCH_OVERHEAD_SECONDS + 1e-3 + chain * 3e-4
    )
    assert price.member_s == pytest.approx(
        BATCH_MEMBER_DISPATCH_SECONDS + 3e-4
    )


@pytest.mark.parametrize("device_class", [FPGA, GPU])
def test_warm_head_pays_final_attempt_and_ignores_assist(device_class):
    warm = price_batch(PROFILE, device_class, cold=False, cpu_assist=False)
    assisted = price_batch(PROFILE, device_class, cold=False, cpu_assist=True)
    assert warm == assisted
    assert warm.head_s - DISPATCH_OVERHEAD_SECONDS == pytest.approx(
        warm.member_s - BATCH_MEMBER_DISPATCH_SECONDS
    )


@pytest.mark.parametrize("device_class", [FPGA, GPU])
def test_cpu_assist_swaps_cold_analysis_for_roundtrip(device_class):
    plain = price_batch(PROFILE, device_class, cold=True, cpu_assist=False)
    assisted = price_batch(PROFILE, device_class, cold=True, cpu_assist=True)
    assert assisted.head_s == pytest.approx(
        plain.head_s - PROFILE.analysis_s + CPU_ASSIST_ROUNDTRIP_SECONDS
    )
    assert (assisted.load_s, assisted.member_s) == (
        plain.load_s, plain.member_s
    )
