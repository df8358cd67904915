"""Hot-path throughput gate: cached solves against scipy's compiled SpMV.

Times the CG and BiCG-STAB solves on the 256x256 (65,536-row) 2-D
Poisson problem twice per round on the same runner: once on a cold
:class:`~repro.sparse.csr.CSRMatrix` (so every one-time plan and cache
construction is priced in) and once on :class:`CompiledSpMVMatrix`, the
same matrix whose SpMV is scipy's compiled ``csr_matvec``.  Both start
in the solver's precision, and the scipy matrix is built once, outside
the timed region; every other solver kernel is shared, so the ratio
isolates this library's SpMV path and its caches.

Run directly to (re)generate the committed machine-readable record::

    PYTHONPATH=src python benchmarks/bench_hot_path.py

which writes ``benchmarks/BENCH_hotpath.json``.  Under pytest the module
is the CI hot-path guard: it re-measures ``scipy wall / cached wall``
per family and fails when a ratio falls more than
:data:`GUARD_RELATIVE_TOLERANCE` below its ``hotpath_*_vs_scipy`` entry
in ``benchmarks/reference_bands.json``.  A 30 % slower cached solve
divides the ratio by 1.3 (a 23 % drop), so the 20 % tolerance catches
it.  Ratios of two runs on the same machine are portable across
runners, unlike absolute solves/sec.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import scipy.sparse

from repro.datasets.pde import poisson_2d
from repro.solvers import BiCGStabSolver, ConjugateGradientSolver
from repro.sparse.csr import CSRMatrix

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"
BANDS_PATH = Path(__file__).resolve().parent / "reference_bands.json"

GRID = 256
ROUNDS = 7
GUARD_RELATIVE_TOLERANCE = 0.20
"""Allowed drop of a pinned ``scipy wall / cached wall`` ratio (20 %)."""

FAMILIES: tuple[tuple[str, type, int | None], ...] = (
    # (family, solver class, iteration cap — None means to convergence)
    ("bicgstab", BiCGStabSolver, None),
    ("cg", ConjugateGradientSolver, 60),
)


class CompiledSpMVMatrix(CSRMatrix):
    """A CSR matrix whose SpMV is scipy's compiled kernel."""

    __slots__ = ("compiled",)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.compiled @ x


def _copy(matrix: CSRMatrix, cls: type = CSRMatrix) -> CSRMatrix:
    """A cold copy: no structure cache or SpMV plan carried over."""
    return cls(
        matrix.shape, matrix.indptr.copy(), matrix.indices.copy(),
        matrix.data.copy(),
    )


def _compiled_twin(matrix: CSRMatrix) -> CompiledSpMVMatrix:
    twin = _copy(matrix, CompiledSpMVMatrix)
    twin.compiled = scipy.sparse.csr_matrix(
        (twin.data, twin.indices, twin.indptr), shape=twin.shape
    )
    return twin


def _timed(solver, matrix: CSRMatrix, b: np.ndarray) -> tuple[float, object]:
    start = time.perf_counter()
    result = solver.solve(matrix, b)
    return time.perf_counter() - start, result


def _summary(wall: float, result) -> dict[str, float]:
    iterations = int(result.iterations)
    return {
        "wall_s": round(wall, 6),
        "iterations": iterations,
        "converged": bool(result.converged),
        "iters_per_sec": round(iterations / wall, 2) if iterations else 0.0,
    }


def measure(rounds: int = ROUNDS) -> dict:
    """Best-of-``rounds`` wall time per family on both SpMV paths.

    The two paths alternate within each round so host-speed drift hits
    both alike; every cached round gets a cold matrix.
    """
    problem = poisson_2d(GRID)
    families: dict[str, dict] = {}
    for name, cls, cap in FAMILIES:
        solver = cls() if cap is None else cls(max_iterations=cap)
        matrix = problem.matrix.astype(solver.dtype)
        compiled = _compiled_twin(matrix)
        best = {"cached": (np.inf, None), "scipy_spmv": (np.inf, None)}
        for _ in range(rounds):
            for path, operator in (
                ("cached", _copy(matrix)),
                ("scipy_spmv", compiled),
            ):
                wall, result = _timed(solver, operator, problem.b)
                if wall < best[path][0]:
                    best[path] = (wall, result)
        cached, reference = best["cached"], best["scipy_spmv"]
        families[name] = {
            "cached": _summary(*cached),
            "scipy_spmv": _summary(*reference),
            "vs_scipy": round(reference[0] / cached[0], 4),
        }
    return {
        "schema_version": 2,
        "problem": {
            "name": f"poisson_2d({GRID})",
            "n_rows": int(problem.matrix.n_rows),
            "nnz": int(problem.matrix.nnz),
        },
        "rounds": rounds,
        "families": families,
    }


def guarded_ratios(report: dict) -> dict[str, float]:
    """The ratios pinned by ``reference_bands.json``."""
    return {
        f"hotpath_{name}_vs_scipy": entry["vs_scipy"]
        for name, entry in report["families"].items()
    }


# ----------------------------------------------------------------------
# CI guard (pytest entry point)
# ----------------------------------------------------------------------


def test_hot_path_vs_scipy_guard():
    """Cached solves may not fall >20% below their pinned scipy ratios."""
    with open(BANDS_PATH) as fh:
        bands = json.load(fh)
    measured = guarded_ratios(measure())
    failures = []
    for name, reference in sorted(bands.items()):
        if not name.startswith("hotpath_"):
            continue
        value = measured[name]
        floor = (1.0 - GUARD_RELATIVE_TOLERANCE) * float(reference)
        if value < floor:
            failures.append(f"{name}: measured {value:.3f} < floor {floor:.3f}")
    assert not failures, "; ".join(failures)


def main() -> int:  # pragma: no cover - CLI
    report = measure()
    with open(BENCH_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in report["families"].items():
        print(
            f"{name:9s} cached {entry['cached']['wall_s']:.4f}s "
            f"scipy-spmv {entry['scipy_spmv']['wall_s']:.4f}s "
            f"ratio {entry['vs_scipy']:.3f}"
        )
    print(f"written: {BENCH_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
