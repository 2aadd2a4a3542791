"""End-to-end benchmark of the train -> label -> infer pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload cli-small --seed 0 --seconds 36 --trace 0

``--trace 0`` repeats the pipeline for ``--seconds`` (at least twice, the
second time as the determinism repeat) and reports the end-to-end metrics;
``--trace 1`` runs an untraced, a traced and another untraced pipeline plus
a short guard-backend pass, and reports the per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON report (environment, per-pipeline timings and fingerprints, and for
traced runs the layer -> end-to-end metric map).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use (before numpy loads)."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            os.environ[var] = str(cpus)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": sys.version.split()[0],
        "warm_up_charged_to": "setup_s",
        "clients": "one, closed loop",
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(src), str(HERE)]

    from harness import measure, measure_traced
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            outcome = measure_traced(workload, args.seed, Path(tmp))
        else:
            outcome = measure(workload, args.seed, args.seconds, Path(tmp))
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        **outcome.report,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
