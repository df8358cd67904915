"""Matrix Market (``.mtx``) reader/writer.

SuiteSparse distributes its collection in Matrix Market exchange format;
this module lets a user with network access run the *actual* Table II
matrices through the accelerator instead of the synthetic stand-ins.
Supports the coordinate format with ``real``/``integer``/``pattern``
fields and ``general``/``symmetric``/``skew-symmetric`` storage (the
variants the SuiteSparse collection uses for the paper's datasets).
"""

from __future__ import annotations

import gzip
import warnings
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

_SUPPORTED_FIELDS = ("real", "integer", "pattern")
_SUPPORTED_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


def _open_text(path: str | Path, mode: str = "r") -> IO[str]:
    """Open ``path`` as text, through gzip when it ends in ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _parse_header(line: str) -> tuple[str, str]:
    """Validate the banner and return ``(field, symmetry)``."""
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise SparseFormatError(f"not a MatrixMarket banner: {line!r}")
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise SparseFormatError(
            f"only 'matrix coordinate' files are supported, got {obj} {fmt}"
        )
    if field not in _SUPPORTED_FIELDS:
        raise SparseFormatError(
            f"unsupported field {field!r}; supported: {_SUPPORTED_FIELDS}"
        )
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise SparseFormatError(
            f"unsupported symmetry {symmetry!r}; supported: "
            f"{_SUPPORTED_SYMMETRIES}"
        )
    return field, symmetry


_ENTRY_DTYPES = {
    "pattern": np.dtype([("row", np.int64), ("col", np.int64)]),
    "real": np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)]),
}


def _read_entries(
    stream: IO[str], field: str, nnz: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the entry lines in one ``np.loadtxt`` call.

    Returns 0-based ``(rows, cols, vals)``.  numpy's C parser reads the
    stream in chunks and rounds floats correctly, so values are
    bit-identical to ``float(token)``; the file is never held as one
    string or token list.  Comment and blank lines may appear anywhere.
    """
    dtype = _ENTRY_DTYPES["pattern" if field == "pattern" else "real"]
    try:
        with warnings.catch_warnings():
            # An entry-less body is legal (nnz == 0) or caught below.
            warnings.filterwarnings(
                "ignore", message="loadtxt: input contained no data"
            )
            entries = np.loadtxt(stream, dtype=dtype, comments="%", ndmin=1)
    except ValueError as exc:
        raise SparseFormatError(f"bad {field} entry: {exc}") from None
    if len(entries) > nnz:
        raise SparseFormatError("more entries than the size line declares")
    if len(entries) != nnz:
        raise SparseFormatError(
            f"size line declares {nnz} entries, file has {len(entries)}"
        )
    rows = entries["row"] - 1  # 1-based in the file
    cols = entries["col"] - 1
    if field == "pattern":
        vals = np.ones(nnz, dtype=np.float64)
    else:
        vals = np.ascontiguousarray(entries["val"])
    return rows, cols, vals


def read_matrix_market(source: str | Path | IO[str]) -> CSRMatrix:
    """Read a Matrix Market coordinate file into CSR.

    ``source`` may be a path (optionally ``.gz``-compressed) or an open
    text stream.  Symmetric / skew-symmetric storage is expanded to the
    full matrix (diagonal entries are not mirrored; a skew file's
    diagonal must be absent or zero per the standard).
    """
    stream: IO[str]
    close = False
    if isinstance(source, (str, Path)):
        stream = _open_text(source)
        close = True
    else:
        stream = source
    try:
        banner = stream.readline()
        field, symmetry = _parse_header(banner)
        size_line = None
        for line in stream:
            if line.startswith("%") or not line.strip():
                continue
            size_line = line
            break
        if size_line is None:
            raise SparseFormatError("missing size line")
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in size_line.split())
        except ValueError:
            raise SparseFormatError(f"bad size line: {size_line!r}") from None
        if min(n_rows, n_cols, nnz) < 0:
            raise SparseFormatError(f"bad size line: {size_line!r}")

        rows, cols, vals = _read_entries(stream, field, nnz)
        if symmetry in ("symmetric", "skew-symmetric"):
            off = rows != cols
            mirror_sign = -1.0 if symmetry == "skew-symmetric" else 1.0
            mirrored_rows = cols[off]
            mirrored_cols = rows[off]
            mirrored_vals = mirror_sign * vals[off]
            rows = np.concatenate([rows, mirrored_rows])
            cols = np.concatenate([cols, mirrored_cols])
            vals = np.concatenate([vals, mirrored_vals])
        return COOMatrix((n_rows, n_cols), rows, cols, vals).to_csr()
    finally:
        if close:
            stream.close()


def write_matrix_market(
    matrix: CSRMatrix,
    destination: str | Path | IO[str],
    comments: Iterable[str] = (),
) -> None:
    """Write a CSR matrix as a general real coordinate Matrix Market file.

    A path ending in ``.gz`` is written gzip-compressed, matching what
    :func:`read_matrix_market` expects of such a path.
    """
    stream: IO[str]
    close = False
    if isinstance(destination, (str, Path)):
        stream = _open_text(destination, "w")
        close = True
    else:
        stream = destination
    try:
        stream.write("%%MatrixMarket matrix coordinate real general\n")
        for comment in comments:
            stream.write(f"% {comment}\n")
        stream.write(f"{matrix.shape[0]} {matrix.shape[1]} {matrix.nnz}\n")
        row_of = matrix.row_ids()
        for r, c, v in zip(row_of, matrix.indices, matrix.data):
            stream.write(f"{r + 1} {c + 1} {float(v)!r}\n")
    finally:
        if close:
            stream.close()
