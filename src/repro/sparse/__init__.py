"""From-scratch sparse-matrix substrate.

The paper's accelerator consumes matrices in Compressed Sparse Row (CSR)
format and internally converts to Compressed Sparse Column (CSC) to test
symmetry.  This package implements those containers and the operations the
solvers and cost models need, without depending on ``scipy.sparse``:

- :class:`~repro.sparse.coo.COOMatrix` — triplet build format,
- :class:`~repro.sparse.csr.CSRMatrix` — the primary compute format with a
  vectorized SpMV,
- :class:`~repro.sparse.csc.CSCMatrix` — column format used by the Matrix
  Structure unit's symmetry check,
- :mod:`~repro.sparse.properties` — structural-property analysis (strict
  diagonal dominance, symmetry, definiteness probes, spectral radius),
- :mod:`~repro.sparse.stats` — row-length statistics feeding the
  Fine-Grained Reconfiguration unit.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix, structure_fingerprint
from repro.sparse.ell import ELLMatrix, padded_slots_for_unroll
from repro.sparse.io import read_matrix_market, write_matrix_market
from repro.sparse.properties import (
    MatrixProperties,
    analyze_properties,
    is_strictly_diagonally_dominant,
    is_symmetric,
    jacobi_iteration_spectral_radius,
    positive_definite_probe,
)
from repro.sparse.reorder import (
    bandwidth,
    permute_symmetric,
    permute_vector,
    rcm_permutation,
    rcm_reorder,
    unpermute_vector,
)
from repro.sparse.sliced_ell import ELLSlice, SlicedELLMatrix
from repro.sparse.stats import RowLengthStats, row_length_stats, row_lengths

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "ELLMatrix",
    "ELLSlice",
    "SlicedELLMatrix",
    "bandwidth",
    "MatrixProperties",
    "RowLengthStats",
    "analyze_properties",
    "is_strictly_diagonally_dominant",
    "is_symmetric",
    "jacobi_iteration_spectral_radius",
    "padded_slots_for_unroll",
    "positive_definite_probe",
    "permute_symmetric",
    "permute_vector",
    "rcm_permutation",
    "rcm_reorder",
    "read_matrix_market",
    "row_lengths",
    "row_length_stats",
    "structure_fingerprint",
    "unpermute_vector",
    "write_matrix_market",
]
