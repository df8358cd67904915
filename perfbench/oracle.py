"""Correctness oracle: true residuals of every solve, independent of repro.

The solvers declare convergence on the recurrence residual they carry in
fp32.  The oracle recomputes ``‖b − A x‖ / ‖b‖`` in fp64 with scipy's CSR
product on the fp32-rounded operator (the operator the solver actually
iterated with) and compares it with the configured tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class CapturedSolve:
    """What one ``Acamar.solve`` call was given and returned."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    b: np.ndarray
    result: Any  # repro.core.accelerator.AcamarResult
    tolerance: float


class SolveCapture:
    """Records every ``Acamar.solve`` call so the oracle can check it.

    Installed in traced and untraced runs alike (one extra Python call per
    solve); only the operator's arrays are kept, not the matrix object and
    its kernel caches.
    """

    def __init__(self) -> None:
        self.solves: list[CapturedSolve] = []

    def install(self) -> None:
        from repro.core.accelerator import Acamar

        original = Acamar.solve
        solves = self.solves

        def solve(acamar, matrix, b, *args, **kwargs):
            result = original(acamar, matrix, b, *args, **kwargs)
            solves.append(CapturedSolve(
                matrix.indptr, matrix.indices, matrix.data,
                np.asarray(b), result, acamar.config.tolerance,
            ))
            return result

        Acamar.solve = solve


def true_residual_ratio(solve: CapturedSolve) -> float:
    """``‖b − A x‖ / ‖b‖ / tolerance`` in fp64 on the fp32 operator."""
    from scipy.sparse import csr_matrix

    n = len(solve.indptr) - 1
    data = solve.data.astype(np.float32).astype(np.float64)
    operator = csr_matrix((data, solve.indices, solve.indptr), shape=(n, n))
    b = solve.b.astype(np.float64)
    x = np.asarray(solve.result.x, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(b - operator @ x))
    return residual / (b_norm if b_norm else 1.0) / solve.tolerance


@dataclass(frozen=True)
class SolveVerdict:
    converged: bool
    ratio: float

    @property
    def failed(self) -> bool:
        """Non-convergence, or convergence claimed above tolerance."""
        return not self.converged or not self.ratio <= 1.0


def judge(solve: CapturedSolve) -> SolveVerdict:
    return SolveVerdict(solve.result.converged, true_residual_ratio(solve))
