"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

    worker.py setup                 import smoothavg.cli and run the warm-up op
    worker.py run WORKLOAD SEED SECONDS TRACE TMPDIR

``run`` prints one JSON object with the op latencies, failures, the
process's peak RSS, the environment and, with TRACE=1, the per-layer
metrics.  The package is imported from ``src/`` of the checkout this file
sits in, never from anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARMUP_ARGV = ["optimize", "first-deriv", "-n", "2"]


def import_cli():
    sys.path.insert(0, str(SRC))
    import smoothavg.cli

    if not Path(smoothavg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"smoothavg imported from {smoothavg.__file__}, not from {SRC}")
    return smoothavg.cli


def warm_up(cli) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(WARMUP_ARGV) != 0:
            raise RuntimeError("warm-up op failed")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def run_pass(ops, known) -> tuple[list, int, list, list]:
    """Run every op once.  Returns (latencies, failed op count, failed
    checks, failed checks that are not known defects)."""
    latencies, failed, failures, unexpected = [], 0, [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
            problems = None
        except Exception as exc:  # counted as a failed op, the run goes on
            problems = [f"raises {type(exc).__name__}"]
        latencies.append(time.perf_counter() - t0)
        if problems is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # output the oracle cannot read
                problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        failed += bool(problems)
        for check in problems:
            failures.append(f"{op.name}: {check}")
            if (op.name, check) not in known:
                unexpected.append(f"{op.name}: {check}")
    return latencies, failed, failures, unexpected


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    cli = import_cli()
    import tracing
    import workloads

    ops = workloads.build_ops(workload, seed, tmp)
    warm_up(cli)
    # The first op of each list, run once untimed, also fills the package's
    # lazy per-process caches (Gauss-Legendre nodes up to 8192 points take
    # ~2.7 s on their own).  A failure here shows again in the timed passes.
    with contextlib.suppress(Exception):
        ops[0].call()
    latencies, walls, failed_ops, failures, unexpected = [], [], 0, [], []

    def one_pass():
        nonlocal failed_ops
        lat, failed, fails, unexp = run_pass(ops, workloads.KNOWN_DEFECTS)
        latencies.extend(lat)
        walls.append(sum(lat))
        failed_ops += failed
        failures.extend(fails)
        unexpected.extend(unexp)

    result = {}
    if trace:
        # a plain pass, then a traced pass over the same ops
        one_pass()
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            one_pass()
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = (walls[1] - walls[0], "s")
        result["layers"] = layers
    else:
        start = time.perf_counter()
        while True:
            one_pass()
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    result.update({
        "ops_per_pass": len(ops),
        "latencies": latencies,
        "walls": walls,
        "attempted": len(latencies),
        "failed": failed_ops,
        "failures": sorted(set(failures)),
        "unexpected": sorted(set(unexpected)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(seed),
    })
    return result


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        warm_up(import_cli())
        return 0
    if len(argv) != 6 or argv[0] != "run":
        print(__doc__, file=sys.stderr)
        return 2
    _, workload, seed, seconds, trace, tmp = argv
    result = run(workload, int(seed), float(seconds), trace == "1", Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
