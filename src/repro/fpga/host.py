"""Host-side model: data movement and end-to-end solve latency.

Figure 3's control flow runs partly on the host: it receives the Matrix
Structure unit's decision, loads partial bitstreams through the ICAP, and
feeds the coefficient matrix to the fabric chunk by chunk.  This module
prices the host-visible parts — PCIe transfer of the CSR streams and the
vectors, plus the reconfiguration commands — so experiments can report
*end-to-end* latency, not just on-fabric compute.

The transfer model is deliberately coarse (sustained PCIe bandwidth with
a fixed per-transfer setup cost); its role is to show where data movement
sits relative to compute and reconfiguration, not to model a DMA engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.cost_model import AcamarLatencyReport, LatencyReport
from repro.sparse.csr import CSRMatrix

PCIE_BANDWIDTH_BYTES_PER_S = 16e9
"""Host↔card sustained bandwidth (PCIe 4.0 x16, ~16 GB/s)."""

TRANSFER_SETUP_SECONDS = 10e-6
"""Fixed cost per DMA transfer (descriptor setup, doorbell, completion)."""

CSR_BYTES_PER_VALUE = 4  # fp32
CSR_BYTES_PER_INDEX = 4  # int32 column index
CSR_BYTES_PER_OFFSET = 8  # int64 row offset


def matrix_transfer_bytes(matrix: CSRMatrix) -> int:
    """Bytes to ship one CSR matrix to the card."""
    return (
        matrix.nnz * (CSR_BYTES_PER_VALUE + CSR_BYTES_PER_INDEX)
        + (matrix.n_rows + 1) * CSR_BYTES_PER_OFFSET
    )


def vector_transfer_bytes(n: int) -> int:
    """Bytes for one fp32 vector of length ``n``."""
    return 4 * n


def transfer_seconds(n_bytes: int, n_transfers: int = 1) -> float:
    """DMA time for ``n_bytes`` split over ``n_transfers`` descriptors."""
    return (
        n_bytes / PCIE_BANDWIDTH_BYTES_PER_S
        + n_transfers * TRANSFER_SETUP_SECONDS
    )


@dataclass(frozen=True)
class EndToEndReport:
    """Complete host-visible latency of one accelerated solve."""

    upload_seconds: float
    compute_seconds: float
    reconfig_seconds: float
    download_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.upload_seconds
            + self.compute_seconds
            + self.reconfig_seconds
            + self.download_seconds
        )

    @property
    def data_movement_fraction(self) -> float:
        """Share of the total spent moving data over PCIe."""
        total = self.total_seconds
        if total == 0:
            return 0.0
        return (self.upload_seconds + self.download_seconds) / total


def end_to_end(
    matrix: CSRMatrix,
    latency: LatencyReport | AcamarLatencyReport,
    chunk_size: int = 4096,
) -> EndToEndReport:
    """Assemble the full host-visible latency of one solve.

    The matrix and the right-hand side upload once (chunked DMA); the
    solution vector downloads once.  Compute and reconfiguration come
    from the FPGA cost model's report.
    """
    from repro.core.chunking import chunk_count

    n_chunks = max(1, chunk_count(matrix.n_rows, chunk_size))
    upload = transfer_seconds(
        matrix_transfer_bytes(matrix) + vector_transfer_bytes(matrix.n_rows),
        n_transfers=n_chunks + 1,
    )
    download = transfer_seconds(vector_transfer_bytes(matrix.n_rows))
    if isinstance(latency, AcamarLatencyReport):
        compute = latency.compute_seconds
        reconfig = (
            sum(a.reconfig_seconds for a in latency.attempts)
            + latency.solver_swap_seconds
        )
    else:
        compute = latency.compute_seconds
        reconfig = latency.reconfig_seconds
    return EndToEndReport(
        upload_seconds=upload,
        compute_seconds=compute,
        reconfig_seconds=reconfig,
        download_seconds=download,
    )
