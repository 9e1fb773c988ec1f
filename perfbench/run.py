"""Run one workload of the ifsim benchmark and print its metrics.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/`, so no
install or build step is needed.  With `--trace 0` the workload runs for
`--seconds` seconds untraced and reports the end-to-end metrics; with
`--trace 1` the traced run reports the per-layer metrics of every module
(see perfbench/README.md).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it,
prefixed "record: ", is the full record: the environment, every metric with
its unit and sample count, and the failed gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("audit", "classify", "bulk", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_ifsim():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "ifsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no ifsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ifsim

    if Path(ifsim.__file__).resolve().parent != SRC / "ifsim":
        raise SystemExit(f"error: imported ifsim from {ifsim.__file__}, not from {SRC}")
    return ifsim


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ifsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ifsim()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    if args.trace:
        import layers

        out = layers.traced_run(args.seed, wl.FULL)
        units = dict(layers.LAYER_METRICS)
        values = {name: out.metrics[name] for name in units}
        detail = {name: (values[name], units[name], 1) for name in units}
    else:
        out = wl.TIMED[args.workload](args.seed, args.seconds, wl.FULL)
        detail = {**out.metrics, "peak_rss_mb": (peak_rss_mb(), "MB", 1)}
        units = wl.SUMMARY_METRICS
        values = {name: detail[name][0] for name in units}

    failed = len(out.failures)
    detail["fail_ratio"] = (failed / out.attempted, "ratio", out.attempted)
    for name, (value, unit, samples) in detail.items():
        print(f"{name:<42} {value:>16.6g} {unit:<6} n={samples}")
    for problem in out.failures[:20]:
        print(f"FAILED: {problem}")
    record = {
        "environment": environment(args),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in detail.items()},
        "failures": out.failures,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
