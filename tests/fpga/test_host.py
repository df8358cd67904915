"""Tests for the host-side transfer and end-to-end latency model."""

import pytest

from repro import Acamar
from repro.datasets import load_problem, poisson_2d
from repro.fpga import PerformanceModel
from repro.fpga.host import (
    PCIE_BANDWIDTH_BYTES_PER_S,
    TRANSFER_SETUP_SECONDS,
    end_to_end,
    matrix_transfer_bytes,
    transfer_seconds,
    vector_transfer_bytes,
)


class TestTransferMath:
    def test_matrix_bytes(self, small_csr):
        # 10 nnz * (4 + 4) + 5 offsets * 8
        assert matrix_transfer_bytes(small_csr) == 10 * 8 + 5 * 8

    def test_vector_bytes(self):
        assert vector_transfer_bytes(1000) == 4000

    def test_transfer_time_components(self):
        bytes_only = transfer_seconds(PCIE_BANDWIDTH_BYTES_PER_S, 0)
        assert bytes_only == pytest.approx(1.0)
        with_setup = transfer_seconds(0, 3)
        assert with_setup == pytest.approx(3 * TRANSFER_SETUP_SECONDS)


class TestEndToEnd:
    @pytest.fixture
    def solved(self):
        problem = poisson_2d(24)
        result = Acamar().solve(problem.matrix, problem.b)
        latency = PerformanceModel().acamar_latency(problem.matrix, result)
        return problem, result, latency

    def test_components_sum(self, solved):
        problem, _, latency = solved
        report = end_to_end(problem.matrix, latency)
        assert report.total_seconds == pytest.approx(
            report.upload_seconds
            + report.compute_seconds
            + report.reconfig_seconds
            + report.download_seconds
        )

    def test_accepts_static_latency_report(self, solved):
        problem, result, _ = solved
        static = PerformanceModel().solver_latency(
            problem.matrix, result.final, urb=8
        )
        report = end_to_end(problem.matrix, static)
        assert report.reconfig_seconds == 0.0
        assert report.compute_seconds == static.compute_seconds

    def test_data_movement_is_minor_for_iterative_solves(self, solved):
        """The matrix uploads once but is swept hundreds of times, so
        PCIe must be a small share of end-to-end time."""
        problem, _, latency = solved
        report = end_to_end(problem.matrix, latency)
        assert report.data_movement_fraction < 0.5

    def test_chunked_upload_charges_per_chunk_setup(self):
        problem = load_problem("At")  # n=4096: 1 chunk at default size
        result = Acamar().solve(problem.matrix, problem.b)
        latency = PerformanceModel().acamar_latency(problem.matrix, result)
        one_chunk = end_to_end(problem.matrix, latency, chunk_size=4096)
        many_chunks = end_to_end(problem.matrix, latency, chunk_size=256)
        assert many_chunks.upload_seconds > one_chunk.upload_seconds

    def test_fraction_zero_for_empty_report(self):
        from repro.fpga.host import EndToEndReport

        empty = EndToEndReport(0.0, 0.0, 0.0, 0.0)
        assert empty.data_movement_fraction == 0.0
