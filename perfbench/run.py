"""yagilab benchmark: two CLI workloads, end-to-end metrics and per-layer spans.

Run from the root of a yagilab checkout (the package is imported from src/):

    python3 perfbench/run.py --workload sweep-band --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

Each workload runs in its own worker process (perfbench/worker.py) as one
closed-loop client driving ``yagilab.cli.run`` in process; workloads.py says
why each workload exists. Workers run with BLAS and OpenMP pinned to one
thread (BLAS_ENV): on a few shared cores, default OpenBLAS threading makes LU
and the far field take several times longer whenever the host is busy, and
the op-time medians of ten runs of the same code spread by a third. Before
an untraced timed worker, SETUP_PROBES short-lived workers only set up, so
``setup_s`` is a median over several process starts.

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` the worker alternates untraced ops with ops that run while the
public functions of geometry, em_solver, matching, analysis and cli are
wrapped in spans (perfbench/spans.py). The result carries per-layer self
times and counts per traced op, and the tracing overhead; the spans are
written to .perfbench/traces/.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-band", "design-loop")
SETUP_PROBES = 4
RUN_DIR = ".perfbench"
# A run must end within 180 s; the timed worker gets what the probes left.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile of op time with at least TAIL_BEYOND samples beyond it.

    With n ops that is the sample at rank n - TAIL_BEYOND (1-based), the
    percentile 100 * (n - TAIL_BEYOND) / n. A run of few slow ops has no such
    percentile above its median, and one of TAIL_BEYOND ops or fewer has none
    at all; it reports its fastest op, the sample with the most beyond it.
    """
    s = sorted(times)
    n = len(s)
    k = max(n - TAIL_BEYOND, 1)
    return s[k - 1], f"p{100 * k / n:.1f} of {n} ops, {n - k} beyond"


def _worker(argv: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env={**os.environ, **BLAS_ENV})
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    began = time.monotonic()
    os.makedirs(os.path.join(RUN_DIR, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(RUN_DIR, "work"))
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    try:
        # setup_s is an end-to-end metric, so a traced run skips the probes.
        probes = 0 if trace else SETUP_PROBES
        setups = [_worker(common + ["--setup-only"], 60.0)["setup_s"] for _ in range(probes)]
        argv = common + ["--seconds", repr(seconds), "--trace", str(trace)]
        if trace:
            os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
            argv += ["--trace-out", os.path.join(RUN_DIR, "traces", f"{name}-seed{seed}.json")]
        raw = _worker(argv, RUN_LIMIT_S - (time.monotonic() - began))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(raw["setup_s"])

    times, failures = raw["times"], raw["failures"]
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if trace:
        computed = set(raw["computed"])
        metrics = {}
        for key, (value, unit) in raw["per_layer"].items():
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key:40s} {value:14.6g} {unit}{'  (computed)' if key in computed else ''}")
    else:
        tail_s, tail_note = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "op_s.tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(times) / raw["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MiB"},
        }
        notes = {"setup_s": f"median of {len(setups)} worker starts", "op_s.tail": tail_note}
        for key, m in metrics.items():
            print(f"  {key:14s} {m['value']:12.6g} {m['unit']:5s} {notes.get(key, '')}")
    print(f"  {'failed_frac':14s} {len(failures) / len(times):12.6g} {'':5s} {len(failures)} of {len(times)} ops")
    return {"correct": not failures, "attempted": len(times), "failed": len(failures), "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "yagilab", "cli.py")):
        print("run.py: no src/yagilab here; run it from the root of a yagilab checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
