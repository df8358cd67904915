"""Tests for the Matrix Market reader/writer."""

import gzip
import io

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import CSRMatrix
from repro.sparse.io import read_matrix_market, write_matrix_market

GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 1 -1.5
3 3 4.0
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 1.0
3 2 -1.0
3 3 4.0
"""

SKEW = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 1.0
3 2 -2.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 3 3
1 1
1 3
2 2
"""


class TestRead:
    def test_general(self):
        matrix = read_matrix_market(io.StringIO(GENERAL))
        expected = np.array(
            [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-1.5, 0.0, 4.0]]
        )
        np.testing.assert_array_equal(matrix.to_dense(), expected)

    def test_symmetric_expansion(self):
        matrix = read_matrix_market(io.StringIO(SYMMETRIC))
        dense = matrix.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert dense[1, 2] == -1.0
        assert matrix.nnz == 6  # 2 diag + 2 mirrored pairs

    def test_skew_symmetric_expansion(self):
        matrix = read_matrix_market(io.StringIO(SKEW))
        dense = matrix.to_dense()
        np.testing.assert_array_equal(dense, -dense.T)
        assert dense[1, 0] == 1.0 and dense[0, 1] == -1.0

    def test_pattern_entries_are_ones(self):
        matrix = read_matrix_market(io.StringIO(PATTERN))
        assert matrix.shape == (2, 3)
        assert matrix.nnz == 3
        np.testing.assert_array_equal(np.unique(matrix.data), [1.0])

    def test_bad_banner_rejected(self):
        with pytest.raises(SparseFormatError, match="banner"):
            read_matrix_market(io.StringIO("%%NotMatrixMarket\n1 1 0\n"))

    def test_array_format_rejected(self):
        bad = "%%MatrixMarket matrix array real general\n2 2\n1.0\n"
        with pytest.raises(SparseFormatError, match="coordinate"):
            read_matrix_market(io.StringIO(bad))

    def test_unsupported_field_rejected(self):
        bad = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
        with pytest.raises(SparseFormatError, match="field"):
            read_matrix_market(io.StringIO(bad))

    def test_truncated_file_rejected(self):
        bad = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n"
        with pytest.raises(SparseFormatError, match="declares 4"):
            read_matrix_market(io.StringIO(bad))

    def test_negative_entry_count_rejected(self):
        bad = "%%MatrixMarket matrix coordinate real general\n3 3 -1\n"
        with pytest.raises(SparseFormatError, match="bad size line"):
            read_matrix_market(io.StringIO(bad))

    def test_excess_entries_rejected(self):
        bad = (
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n"
            "1 1 2.0\n1 1 3.0\n"
        )
        with pytest.raises(SparseFormatError, match="more entries"):
            read_matrix_market(io.StringIO(bad))

    @pytest.mark.parametrize(
        "banner, entry",
        [
            ("real", "1 x 2.0"),  # non-integer index
            ("real", "1.5 1 2.0"),  # fractional index
            ("real", "1 1 abc"),  # non-numeric value
            ("real", "1 1 2.0 4.0"),  # four tokens
            ("real", "1 1"),  # two tokens in a real file
            ("pattern", "1 1 3.0"),  # three tokens in a pattern file
        ],
    )
    def test_malformed_entry_raises_library_error(self, banner, entry):
        bad = (
            f"%%MatrixMarket matrix coordinate {banner} general\n2 2 2\n"
            f"2 2 {'' if banner == 'pattern' else '1.0'}\n{entry}\n"
        )
        with pytest.raises(SparseFormatError, match="bad .*entry"):
            read_matrix_market(io.StringIO(bad))

    def test_comment_and_blank_lines_between_entries(self):
        text = GENERAL.replace("2 2 3.0\n", "\n% mid-file comment\n2 2 3.0\n\n")
        interleaved = read_matrix_market(io.StringIO(text))
        plain = read_matrix_market(io.StringIO(GENERAL))
        np.testing.assert_array_equal(interleaved.to_dense(), plain.to_dense())

    def test_empty_body_matches_zero_count(self):
        text = "%%MatrixMarket matrix coordinate real general\n3 2 0\n"
        matrix = read_matrix_market(io.StringIO(text))
        assert matrix.shape == (3, 2) and matrix.nnz == 0

    def test_values_parse_bit_identically_to_float(self):
        tokens = [
            "0.1",
            "-2.2250738585072011e-308",
            "4.9406564584124654e-324",
            "9007199254740993",
            "1.7976931348623157e308",
            "3.141592653589793238462643383279",
            "-7E-3",
        ]
        body = "".join(f"{i + 1} 1 {tok}\n" for i, tok in enumerate(tokens))
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            f"{len(tokens)} 1 {len(tokens)}\n{body}"
        )
        matrix = read_matrix_market(io.StringIO(text))
        expected = np.array([float(tok) for tok in tokens])
        assert matrix.data.tobytes() == expected.tobytes()

    def test_missing_size_line(self):
        bad = "%%MatrixMarket matrix coordinate real general\n% only comments\n"
        with pytest.raises(SparseFormatError, match="size line"):
            read_matrix_market(io.StringIO(bad))


class TestRoundtrip:
    def test_write_read_roundtrip(self, tmp_path, rng):
        from tests.conftest import random_dense

        matrix = CSRMatrix.from_dense(random_dense(rng, 12, 9, 0.3))
        path = tmp_path / "matrix.mtx"
        write_matrix_market(matrix, path, comments=["generated by tests"])
        recovered = read_matrix_market(path)
        assert recovered.allclose(matrix, rtol=1e-12)

    @pytest.mark.parametrize("suffix", [".mtx", ".mtx.gz"])
    @pytest.mark.parametrize(
        "text", [GENERAL, SYMMETRIC, SKEW, PATTERN],
        ids=["general", "symmetric", "skew-symmetric", "pattern"],
    )
    def test_file_roundtrip_is_exact(self, tmp_path, text, suffix):
        matrix = read_matrix_market(io.StringIO(text))
        path = tmp_path / f"matrix{suffix}"
        write_matrix_market(matrix, path, comments=["round trip"])
        with open(path, "rb") as fh:
            assert (fh.read(2) == b"\x1f\x8b") == (suffix == ".mtx.gz")
        recovered = read_matrix_market(path)
        assert recovered.shape == matrix.shape
        np.testing.assert_array_equal(recovered.indptr, matrix.indptr)
        np.testing.assert_array_equal(recovered.indices, matrix.indices)
        assert recovered.data.tobytes() == matrix.data.tobytes()

    def test_gzip_read(self, tmp_path):
        path = tmp_path / "matrix.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(GENERAL)
        matrix = read_matrix_market(path)
        assert matrix.nnz == 4

    def test_solver_pipeline_from_file(self, tmp_path):
        """A user can load an .mtx and run Acamar directly."""
        from repro import Acamar
        from repro.datasets.generators import sdd_matrix

        original = sdd_matrix(128, 5.0, seed=77, symmetric=True)
        path = tmp_path / "system.mtx"
        write_matrix_market(original, path)
        matrix = read_matrix_market(path)
        rng = np.random.default_rng(0)
        b = matrix.matvec(rng.standard_normal(128)).astype(np.float32)
        result = Acamar().solve(matrix, b)
        assert result.converged
        assert result.selection.solver == "cg"
