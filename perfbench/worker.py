"""One benchmark worker: a closed-loop client running one workload in this process.

Started by run.py from the root of a yagilab checkout. It imports yagilab
from ``src/`` before anything from numpy or scipy; run.py starts it with BLAS
and OpenMP pinned to one thread. It prints one JSON line with its raw
measurements; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="file the spans are written to when the run ends")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas(module) -> dict | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(root: str) -> dict:
    """What a result needs to be comparable: CPUs, BLAS and threads, versions, commit."""
    import platform

    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        **{var: os.environ.get(var, "unset") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


def _op(workload, cli, failures: list[str], tracer=None) -> float:
    """Run and time one op; a failed check or a crash is added to `failures`."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            reason = workload.run_op(cli)
        else:
            with tracer.op():
                reason = workload.run_op(cli)
    except Exception:  # an op that crashes counts as failed; the loop goes on
        reason = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if reason is not None:
        failures.append(reason)
        print(f"op failed: {reason}", file=sys.stderr)
    return elapsed


def main() -> int:
    args = _parse()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from yagilab import cli  # before numpy or scipy, as a user's process would

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup(cli)
    workloads.warm_up(cli, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "env": environment(root)}
    times: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    if not args.trace:
        # Closed loop for at least --seconds, and at least one op.
        while not times or time.perf_counter() - start < args.seconds:
            times.append(_op(workload, cli, failures))
        result.update(times=times, failures=failures, wall_s=time.perf_counter() - start)
    else:
        import spans

        # Untraced and traced ops alternate on the same inputs (a second
        # workload object replays the seeded draws), so a drift in machine
        # speed falls on both alike; the p50 difference is the tracing overhead.
        again = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        tracer = spans.Tracer()
        traced: list[float] = []
        while not traced or time.perf_counter() - start < args.seconds:
            times.append(_op(workload, cli, failures))
            tracer.install()
            try:
                traced.append(_op(again, cli, failures, tracer))
            finally:
                tracer.uninstall()
        if args.trace_out:
            tracer.write(args.trace_out)
        layers = spans.per_layer(tracer.spans, len(traced), tracer.bytes_written)
        untraced_p50 = statistics.median(times)
        layers["trace.untraced_op_s.p50"] = (untraced_p50, "s")
        layers["trace.overhead_s"] = (layers["trace.op_s.p50"][0] - untraced_p50, "s")
        layers["trace.ops"] = (float(len(traced)), "count")
        result.update(
            times=times + traced,
            failures=failures,
            per_layer=layers,
            computed=list(spans.COMPUTED_METRICS),
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
