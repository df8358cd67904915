"""Cost estimation and labeling of problem sources.

These helpers are shared by the worker-pool engine (chunk balancing),
the campaign runner and serving's cold profiling
(:mod:`repro.serve.profile`).  They live apart from
:mod:`repro.parallel.engine` so consumers that only need a cost hint or
a label do not import the pool machinery (executors, futures, retry
bookkeeping).

``estimate_cost`` is deliberately heuristic: relative error against the
true NNZ only skews load balance, never correctness.
"""

from __future__ import annotations

import os
from typing import Any


def estimate_cost(source: Any) -> float:
    """Estimated solve cost of a source, in NNZ-like units.

    In-memory problems report their exact NNZ.  Matrix Market paths are
    costed by file size (proportional to NNZ — one text line per entry).
    Table II keys fall back to the registry's dimension ``n``; relative
    error against true NNZ only skews chunk balance, never correctness.
    """
    from repro.datasets.problem import Problem

    if isinstance(source, Problem):
        return float(source.nnz)
    text = str(source)
    if text.endswith((".mtx", ".mtx.gz")):
        try:
            return float(os.path.getsize(text))
        except OSError:
            return 1.0
    from repro.datasets.suite import dataset_keys, dataset_spec

    if text in dataset_keys():
        return float(dataset_spec(text).n)
    return 1.0


def source_label(source: Any) -> str:
    """Human-readable name for a source (used in failure records)."""
    from repro.campaign import problem_name_from_path
    from repro.datasets.problem import Problem

    if isinstance(source, Problem):
        return source.name
    text = str(source)
    if text.endswith((".mtx", ".mtx.gz")):
        return problem_name_from_path(text)
    return text
