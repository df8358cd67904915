"""Vectorized generator loops against their per-row reference forms.

The generators draw their random numbers in a scalar loop and build the
coordinate arrays for all rows at once.  The references below are the
per-row loops they replaced; outputs and the generator's final
``bit_generator.state`` must be equal, so every later draw is too.
"""

import numpy as np
import pytest

from repro.datasets.generators import (
    _clique_pattern,
    _random_offdiag_pattern,
    balanced_indefinite_matrix,
    sample_row_lengths,
)
from repro.sparse import COOMatrix


def reference_row_lengths(n, mean_nnz, rng, spread=0.6, correlation=0.95):
    noise = rng.standard_normal(n)
    z = np.empty(n)
    z[0] = noise[0]
    scale = np.sqrt(1.0 - correlation**2)
    for i in range(1, n):
        z[i] = correlation * z[i - 1] + scale * noise[i]
    mu = np.log(mean_nnz) - 0.5 * spread**2
    lengths = np.round(np.exp(mu + spread * z)).astype(np.int64)
    return np.clip(lengths, 1, max(1, n - 1))


def reference_offdiag_pattern(n, row_lengths, rng):
    rows, cols = [], []
    for i, k in enumerate(row_lengths):
        k = int(min(k, n - 1))
        if k <= 0:
            continue
        choices = rng.choice(n - 1, size=k, replace=False)
        choices = np.where(choices >= i, choices + 1, choices)
        rows.append(np.full(k, i, dtype=np.int64))
        cols.append(choices.astype(np.int64))
    if not rows:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def reference_clique_pattern(n, clique_mean, rng, clique_min, clique_max):
    rows, cols = [], []
    start = 0
    while start < n:
        size = int(
            np.clip(
                round(rng.lognormal(np.log(clique_mean), 0.4)),
                clique_min,
                clique_max,
            )
        )
        size = min(size, n - start)
        if size >= 2:
            members = np.arange(start, start + size)
            grid_r, grid_c = np.meshgrid(members, members, indexing="ij")
            off = grid_r != grid_c
            rows.append(grid_r[off].ravel())
            cols.append(grid_c[off].ravel())
        start += max(size, 1)
    if not rows:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def reference_balanced(n, seed, mean_nnz, coupling=2.0, magnitude_spread=0.5):
    rng = np.random.default_rng(seed)
    half = n // 2
    rows_list, cols_list = [], []
    for i in range(half):
        k = max(1, int(rng.lognormal(np.log(mean_nnz), 0.5)))
        chosen = rng.choice(half, size=min(k, half), replace=False)
        rows_list.append(np.full(len(chosen), i, dtype=np.int64))
        cols_list.append(chosen.astype(np.int64))
    r = np.concatenate(rows_list)
    c = np.concatenate(cols_list)
    v = rng.uniform(0.5, 1.5, len(r)) * coupling
    r_sym = np.concatenate([r, c])
    c_sym = np.concatenate([c, r])
    v_sym = np.concatenate([v, v]) * 0.5
    scale = np.exp(rng.normal(0.0, magnitude_spread, half))
    v_sym = v_sym * scale[r_sym] * scale[c_sym]
    diag_mag = scale * scale
    diag_idx = np.arange(half)
    rows = np.concatenate([r_sym, half + r_sym, diag_idx, half + diag_idx])
    cols = np.concatenate([half + c_sym, c_sym, diag_idx, half + diag_idx])
    vals = np.concatenate([v_sym, v_sym, diag_mag, -diag_mag])
    return COOMatrix((n, n), rows, cols, vals).to_csr()


def assert_same_arrays(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)


SEEDS = [0, 1, 7, 42]
SIZES = [1, 2, 3, 17, 240]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("correlation", [0.0, 0.5, 0.95])
def test_row_lengths_match_loop(seed, n, correlation):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_row_lengths(n, 4.0, rng, correlation=correlation)
    expected = reference_row_lengths(n, 4.0, ref_rng, correlation=correlation)
    assert_same_arrays([got], [expected])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_offdiag_pattern_matches_loop(seed, n):
    # Lengths past both ends: negative and zero rows are skipped, long
    # rows are capped at n - 1.
    lengths = np.random.default_rng(seed + 100).integers(-2, n + 3, size=n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _random_offdiag_pattern(n, lengths, rng)
    expected = reference_offdiag_pattern(n, lengths, ref_rng)
    assert_same_arrays(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "clique_mean, clique_min, clique_max",
    [(10.0, 3, 24), (4.0, 0, 6), (3.0, 1, 1), (12.0, 3, 40)],
)
def test_clique_pattern_matches_loop(seed, n, clique_mean, clique_min, clique_max):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _clique_pattern(n, clique_mean, rng, clique_min, clique_max)
    expected = reference_clique_pattern(
        n, clique_mean, ref_rng, clique_min, clique_max
    )
    assert_same_arrays(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, mean_nnz", [(2, 3.0), (9, 1.0), (200, 6.0)])
def test_balanced_indefinite_matches_loop(seed, n, mean_nnz):
    got = balanced_indefinite_matrix(n, seed, mean_nnz=mean_nnz)
    expected = reference_balanced(n, seed, mean_nnz)
    assert_same_arrays(
        [got.indptr, got.indices, got.data],
        [expected.indptr, expected.indices, expected.data],
    )
