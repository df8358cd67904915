"""One benchmark pass in a fresh interpreter (started by ``run.py``).

Builds the workload's inputs, times the workload's user-facing call,
checks the outputs and prints one JSON object as its last stdout line.
With ``--trace 1`` the layer wrappers are installed before the timed
region and the spans are written to ``--workdir`` after it.

    python3 perfbench/one_pass.py --workload suite-campaign --seed 1 \
        --trace 0 --t0 <time.monotonic() before the interpreter started> \
        --workdir .perfbench_work/suite-campaign-seed1
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import oracle
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    capture = oracle.SolveCapture()
    capture.install()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(args.seed, args.workdir)

    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    output = workload.run(inputs)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = workload.check(inputs, output, capture, args.workdir)
    import numpy
    import scipy

    result = {
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": verdict.ops,
        "failed": verdict.failed,
        "failed_ops": verdict.failed_ops,
        "problems": verdict.problems,
        "true_residual_max": verdict.true_residual_max,
        "sim_requests": verdict.sim_requests,
        "digest": verdict.digest,
        "inputs": verdict.inputs,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s)
        layers.update(
            verdict.simulated, ops=verdict.ops, ops_failed=verdict.failed
        )
        layers["solvers.true_residual_violations"] = (
            verdict.true_residual_violations
        )
        result["layers"] = layers
        tracer.write(args.workdir / "spans.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
