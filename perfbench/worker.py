"""One workload process: set up, then run a timed or a traced phase.

  python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS MIN_OPS SPAWNED_AT ROOT

MODE "timed": after set-up, an untraced closed loop of ops for SECONDS and
at least MIN_OPS ops.  MODE "traced": a fixed number of ops (at least
MIN_OPS, sized to take about SECONDS / 2) untraced, then as many traced.
SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so setup_s covers interpreter start, `import
unimech`, building the inputs and one untimed round of warm-up ops.  ROOT
is the checkout: `unimech` must come from ROOT/src, and files go to
ROOT/.perfbench.  The last line of standard output is one JSON object
that run.py reads.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path


def _attempt(workload, i: int, errors: list) -> bool:
    """Run one op; an exception or a missed check is a failed op."""
    try:
        ok = bool(workload.run_op(i))
    except Exception as exc:  # the op failed; count it and keep measuring
        ok, why = False, f"{type(exc).__name__}: {exc}"
    else:
        why = "check missed"
    if not ok and len(errors) < 5:
        errors.append(f"op {i}: {why}")
    return ok


def _phase(workload, first: int, seconds: float, min_ops: int, errors: list,
           ops: int | None = None, tracer=None):
    """Closed loop of ops: each starts when the previous one is done.

    Without `ops`, runs for `seconds`; with `ops`, runs that many ops unless
    `seconds` pass first.  Either way it runs at least `min_ops` ops and
    stops only after whole round-robin cycles, so every case runs equally
    often.
    """
    latencies = []
    failed = 0
    i = first
    start = time.perf_counter()
    while True:
        n = len(latencies)
        if (n >= min_ops and n % workload.cycle == 0
                and ((ops is not None and n >= ops) or time.perf_counter() - start >= seconds)):
            break
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        ok = _attempt(workload, i, errors)
        latencies.append(time.perf_counter() - t0)
        failed += not ok
        i += 1
    return latencies, failed, time.perf_counter() - start


def main(argv: list[str]) -> int:
    name, seed, mode, seconds, min_ops, spawned_at, root = argv
    seed, seconds, min_ops, spawned_at = int(seed), float(seconds), int(min_ops), float(spawned_at)
    root = Path(root)
    import unimech

    if not Path(unimech.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"imported unimech from {unimech.__file__}, not from the checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, root / ".perfbench" / "work")
    errors: list[str] = []
    warmup = [_attempt(workload, i, errors) for i in range(workload.cycle)]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    first = workload.cycle
    out = {"setup_s": ready - spawned_at, "fingerprint": workload.fingerprint()}
    if mode == "timed":
        latencies, failed, wall = _phase(workload, first, seconds, min_ops, errors)
        out.update(wall_s=wall, latencies_ms=[1e3 * x for x in latencies])
    else:
        from tracing import Tracer, layer_metrics

        # A fixed op count makes the per-layer counts repeat exactly from
        # run to run; the time caps bound the run on a slow host.
        n = math.ceil(max(min_ops, seconds / 2 * workload.nominal_rate) / workload.cycle)
        latencies, failed, untraced_wall = _phase(
            workload, first, 1.5 * seconds, min_ops, errors, ops=n * workload.cycle)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failed, traced_wall = _phase(
                workload, first + len(latencies), 2.5 * seconds, min_ops, errors,
                ops=len(latencies), tracer=tracer)
        finally:
            tracer.uninstall()
        latencies += traced
        failed += traced_failed
        tracer.save(root / ".perfbench" / f"spans-{name}.npz")
        out["per_layer"] = layer_metrics(tracer, traced_wall, untraced_wall)
    out["attempted"] = len(warmup) + len(latencies)
    out["failed"] = warmup.count(False) + failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
