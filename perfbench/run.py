"""smoothavg benchmark: time to a certified answer, per workload.

    python3 perfbench/run.py --workload {certify,solve,continuum} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``.  ``setup_s`` is the median time of fresh processes that import
``smoothavg.cli`` and run one warm-up op.  The workload itself runs in
one more fresh process, with BLAS pinned to one thread, so its peak RSS
is its own.  With ``--trace 0`` that process repeats the op list while a
further pass still fits in ``--seconds`` (at least once) and the
end-to-end metrics are reported; with ``--trace 1`` it runs the list
once plainly and once traced, and the per-layer metrics are reported.
Every op's output is checked against an oracle.  The last line of
standard output is the JSON result; the lines before it are a readable
report.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("certify", "solve", "continuum")
SETUP_RUNS = 3  # timed fresh processes, after one untimed one
TIME_LIMIT = 170.0  # the whole run must end within 180 s
PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills the child and waits for it when the timeout expires
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, timeout=timeout, text=True)


def measure_setup(deadline: float) -> list:
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = run_worker(["setup"], deadline - time.monotonic())
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        if i > 0:
            times.append(elapsed)
    return times


def tail(latencies: list):
    """(percentile, value): the highest whole percentile with at least ten
    ops beyond it, by nearest rank; None when there are too few ops."""
    n = len(latencies)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return pct, sorted(latencies)[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smoothavg" / "__init__.py").is_file():
        print(f"no smoothavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        setup = [] if args.trace else measure_setup(deadline)
        proc = run_worker(["run", args.workload, str(args.seed), str(args.seconds),
                           str(args.trace), tmp], deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    lat = res["latencies"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(res["env"]))
    print(f"ops {res['ops_per_pass']} per pass, {len(res['walls'])} passes")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops failed)")
    for line in res["failures"]:
        known = "" if line in res["unexpected"] else "  [known defect]"
        print(f"  failed: {line}{known}")

    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(res["walls"]), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        # reported, not gated: see README.md
        t = tail(lat)
        print(f"op_p50_s {statistics.median(lat):.6g} s ({len(lat)} ops)")
        print("op_tail_s " + (f"{t[1]:.6g} s (p{t[0]} of {len(lat)} ops)" if t
                              else f"undefined ({len(lat)} ops, fewer than 11)"))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
