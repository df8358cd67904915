"""End-to-end benchmark of the repro library (see perfbench/README.md).

    python3 perfbench/run.py --workload suite-campaign --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Each pass runs in a fresh interpreter
(``one_pass.py``), one at a time, with one BLAS thread, so caches such as
``load_matrix``'s start empty as they do for a command-line user.  Passes
repeat until ``--seconds`` is used up (at least ``MIN_PASSES``); the
reported value of each timed metric is the median over passes.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the input sizes and every pass.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    COVERAGE_FLOOR,
    END_TO_END,
    EXACT_LAYER_METRICS,
    PER_LAYER,
)
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = {0: 3, 1: 4}
"""Untraced runs take at least 3 passes; traced runs at least 2 of each."""

RUN_LIMIT_S = 170.0
"""A run must end within 180 s; no pass starts a child past this."""

STALL_S = 0.5
"""A pass whose wall time exceeds the run's median by more than this is
counted as a stall (an unexplained pause seen in about 1 fresh process in
8 on a 2-core host)."""

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV, PYTHONHASHSEED="0")
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_pass(
    root: Path, workload: str, seed: int, trace: int, workdir: Path,
    timeout: float,
) -> dict:
    """Run one pass in a fresh interpreter and return its JSON record."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "one_pass.py"),
            "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--t0", repr(t0),
            "--workdir", str(workdir),
        ],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} pass exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(
    root: Path, workload: str, seed: int, seconds: float, trace: int,
    workdir: Path,
) -> list[dict]:
    """Passes until ``seconds`` are used (traced runs alternate modes)."""
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        mode = len(passes) % 2 if trace else 0
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        if remaining <= 0:
            raise BenchmarkError(f"{workload}: out of time after "
                                 f"{len(passes)} passes")
        record = run_pass(root, workload, seed, mode, workdir, remaining)
        passes.append(record)
        elapsed = time.monotonic() - start
        mean_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES[trace] and elapsed + mean_pass > seconds:
            return passes


def _same(passes: list[dict], key) -> bool:
    return len({json.dumps(key(p), sort_keys=True) for p in passes}) == 1


def summarize(passes: list[dict], trace: int) -> tuple[dict, list[str]]:
    """Metrics of a run and the consistency problems found."""
    problems = [msg for p in passes for msg in p["problems"]]
    for label, key in (
        ("operation counts", lambda p: (p["ops"], p["failed_ops"])),
        ("true_residual_max", lambda p: p["true_residual_max"]),
        ("output digest", lambda p: p["digest"]),
    ):
        if not _same(passes, key):
            problems.append(f"passes disagree on {label}")
    untraced = [p for p in passes if not p["trace"]]
    metrics: dict[str, float] = {}
    if not trace:
        metrics = {
            "setup_s": median(p["setup_s"] for p in untraced),
            "wall_s": median(p["wall_s"] for p in untraced),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
            "sim_requests_per_s": median(
                p["sim_requests"] / p["wall_s"] for p in untraced
            ),
            "true_residual_max": untraced[0]["true_residual_max"],
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    else:
        traced = [p for p in passes if p["trace"]]
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            # A layer this workload never reaches reports 0.
            values = [p["layers"].get(name, 0) for p in traced]
            if name in EXACT_LAYER_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"traced passes disagree on {name}")
                metrics[name] = values[0]
            else:
                metrics[name] = median(values)
        metrics["trace.overhead_s"] = median(
            p["wall_s"] for p in traced
        ) - median(p["wall_s"] for p in untraced)
        for p in traced:
            if p["layers"]["trace.coverage"] < COVERAGE_FLOOR:
                problems.append(
                    f"trace.coverage {p['layers']['trace.coverage']:.3f} "
                    f"< {COVERAGE_FLOOR}"
                )
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    return (
        {name: {"value": metrics[name], "unit": units[name]}
         for name in units},
        problems,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Byte-compile once up front so no pass pays for it inside setup_s.
    compileall.compile_dir(root / "src", quiet=1)
    workload = WORKLOADS[args.workload]
    if workload.prepare is not None:
        sys.path.insert(0, str(root / "src"))
        workload.prepare(args.seed, workdir)
    try:
        passes = run_passes(root, args.workload, args.seed, args.seconds,
                            args.trace, workdir)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, problems = summarize(passes, args.trace)
    walls = [p["wall_s"] for p in passes if not p["trace"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "versions": passes[0]["versions"],
        "inputs": passes[0]["inputs"],
        "failed_ops": passes[0]["failed_ops"],
        "problems": problems,
        "stalls": sum(w > median(walls) + STALL_S for w in walls),
        "passes": [
            {key: p[key] for key in ("trace", "setup_s", "wall_s",
                                     "peak_rss_mb")}
            for p in passes
        ],
    }
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=2) + "\n"
    )
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": passes[0]["ops"],
        "failed": passes[0]["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
