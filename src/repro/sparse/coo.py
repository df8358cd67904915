"""Coordinate (triplet) sparse format.

COO is the natural *build* format: generators and dataset synthesizers emit
``(row, col, value)`` triplets and convert once to CSR for compute.  The
class stores three parallel numpy arrays and knows how to canonicalize
itself (sort by row then column, merge duplicates, drop explicit zeros).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError


@dataclass(frozen=True)
class COOMatrix:
    """Sparse matrix in coordinate format.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    rows, cols:
        Integer arrays of equal length with the coordinates of each stored
        entry.
    data:
        Floating-point array of stored values, same length as the
        coordinate arrays.

    The constructor validates bounds and lengths; use :meth:`canonical` to
    obtain a duplicate-free, sorted copy.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        data = np.asarray(self.data)
        if not (len(rows) == len(cols) == len(data)):
            raise SparseFormatError(
                "rows, cols and data must have equal length, got "
                f"{len(rows)}, {len(cols)}, {len(data)}"
            )
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise SparseFormatError("row index out of bounds")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise SparseFormatError("column index out of bounds")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @property
    def nnz(self) -> int:
        """Number of stored entries (before canonicalization)."""
        return len(self.data)

    def canonical(self) -> "COOMatrix":
        """Return a sorted, duplicate-summed, zero-free copy.

        Input already in (row, col) order skips the sort, and input
        without duplicate coordinates skips the scatter-add; both checks
        are O(nnz) and the result is bit-identical either way (a stable
        sort of sorted input is the identity, and a group of one is
        summed as ``0 + x``, exactly as the scatter-add would).
        """
        if self.nnz == 0:
            return self
        rows, cols, data = self.rows, self.cols, self.data
        row_step = np.diff(rows)
        col_step = np.diff(cols)
        if (row_step < 0).any() or ((row_step == 0) & (col_step < 0)).any():
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]
            row_step = np.diff(rows)
            col_step = np.diff(cols)
        # Merge duplicate coordinates by summation.
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        np.logical_or(row_step != 0, col_step != 0, out=new_group[1:])
        if new_group.all():
            summed = data + 0
        else:
            group_ids = np.cumsum(new_group) - 1
            summed = np.zeros(group_ids[-1] + 1, dtype=data.dtype)
            np.add.at(summed, group_ids, data)
        keep_rows = rows[new_group]
        keep_cols = cols[new_group]
        nonzero = summed != 0
        return COOMatrix(
            self.shape, keep_rows[nonzero], keep_cols[nonzero], summed[nonzero]
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (for tests and small examples)."""
        dense = np.zeros(self.shape, dtype=np.result_type(self.data, np.float32))
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR, canonicalizing first."""
        from repro.sparse.csr import CSRMatrix

        canon = self.canonical()
        n_rows, _ = self.shape
        counts = np.bincount(canon.rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(self.shape, indptr, canon.cols.copy(), canon.data.copy())

    @staticmethod
    def from_dense(dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from the non-zero entries of a dense array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return COOMatrix(dense.shape, rows, cols, dense[rows, cols])
