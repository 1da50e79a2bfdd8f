"""Benchmark of unimech: flows, jet products and CLI runs.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  Each
workload process is single-threaded (BLAS pinned to one thread) and only
one runs at a time.  A throwaway `import unimech` comes first, so the
timed processes find the bytecode and the files already cached.

--trace 0: the S seconds are split over CHUNKS workload processes run one
after another.  Each sets up (interpreter start, import, inputs from the
seed, one untimed round of warm-up ops) and then runs a closed loop of ops
for S / CHUNKS seconds.  setup_s is the median of the CHUNKS set-ups, which
so sample the host at different moments of the run; latencies are pooled.

--trace 1: one workload process runs a fixed number of ops sized to take
about S/2 seconds untraced, then the same number with every public unimech
function wrapped in a span (see tracing.py), and prints the per-layer
metrics.  The spans are written to .perfbench/spans-NAME.npz.

Every op checks its own output (see workloads.py); a miss or an exception
counts as a failed op.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("cli_runs", "flow_long", "jet_products")  # the classes are in workloads.py
CHUNKS = 5
MIN_OPS = 100  # per run, so that at least ten latency samples lie beyond p90
DEADLINE_S = 170.0  # the whole run, every child included
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in SINGLE_THREAD})
    return env


def _run_worker(args, mode: str, seconds: float, min_ops: int, root: Path, env: dict,
                deadline: float) -> dict:
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), mode,
           repr(seconds), str(min_ops), repr(spawned_at), str(root)]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "timer": f"perf_counter, resolution {time.get_clock_info('perf_counter').resolution:g} s",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "unimech" / "__init__.py").is_file():
        print("error: run from the root of a unimech checkout (no src/unimech here)",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    work = root / ".perfbench" / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, "-c", "import unimech"], env=env, cwd=root,
                       check=True, timeout=60)
        if args.trace:
            runs = [_run_worker(args, "traced", args.seconds, MIN_OPS, root, env, deadline)]
        else:
            runs = [_run_worker(args, "timed", args.seconds / CHUNKS, -(-MIN_OPS // CHUNKS),
                                root, env, deadline) for _ in range(CHUNKS)]
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {"machine": _machine(), "inputs": runs[0]["fingerprint"],
            "error_rate": failed / attempted}
    if args.trace:
        metrics = runs[0]["per_layer"]
    else:
        latencies = sorted(x for r in runs for x in r["latencies_ms"])
        wall = sum(r["wall_s"] for r in runs)
        # Latency percentiles are printed but not gated: the host switches
        # between speeds for seconds at a time, so the median of a uniform
        # op jumps between them from run to run, and across ten runs the
        # p90 spread wider than ops_per_s (see README.md).
        info.update(samples=len(latencies), op_p50_ms=statistics.median(latencies),
                    op_p90_ms=statistics.quantiles(latencies, n=10, method="inclusive")[8])
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(latencies) / wall, "1/s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
