"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.sparse import CSRMatrix


class _LosingPool:
    """``ProcessPoolExecutor`` stand-in: runs chunks inline, except that
    a chunk holding item 0 always kills its worker."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers

    def submit(self, fn, items, *args) -> Future:
        future: Future = Future()
        if any(item.index == 0 for item in items):
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(items, *args))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        return None


@pytest.fixture
def losing_pool(monkeypatch):
    """Make every pooled ``run_sharded`` lose the worker of item 0."""
    monkeypatch.setattr(
        "repro.parallel.engine.ProcessPoolExecutor", _LosingPool
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense() -> np.ndarray:
    """A fixed 4x4 matrix with an empty row-interior and a zero entry."""
    return np.array(
        [
            [4.0, -1.0, 0.0, 0.0],
            [-1.0, 4.0, -1.0, 0.0],
            [0.0, -1.0, 4.0, -1.0],
            [0.0, 0.0, -1.0, 4.0],
        ]
    )


@pytest.fixture
def small_csr(small_dense) -> CSRMatrix:
    return CSRMatrix.from_dense(small_dense)


def random_dense(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    density: float = 0.2,
) -> np.ndarray:
    """Random sparse-pattern dense array (helper, not a fixture)."""
    mask = rng.random((n_rows, n_cols)) < density
    values = rng.standard_normal((n_rows, n_cols))
    return np.where(mask, values, 0.0)


@pytest.fixture
def spd_system(rng):
    """A well-conditioned SPD system with a known solution (n=120)."""
    n = 120
    dense = random_dense(rng, n, n, density=0.05)
    dense = dense + dense.T
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    matrix = CSRMatrix.from_dense(dense)
    x_true = rng.standard_normal(n)
    b = matrix.matvec(x_true).astype(np.float32)
    return matrix, b, x_true
