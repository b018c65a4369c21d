"""Closed-loop benchmark of cstarmech: one client, one job at a time.

    python3 bench/run.py --workload {ensemble,structure,trajectory} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout; the program is imported from ``src/``. A run
lasts S seconds. It runs jobs and checks every job's output, and it sets
up afresh (a new import of ``cstarmech``, one generated input, one warm-up
job) at evenly spaced times; the median set-up time is ``setup_s``. It
prints one JSON line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The exit code is 1
if any job failed or any check failed, and 2 if the program is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# Small dense kernels ran slower with the OpenBLAS thread pool on a 2-core
# host (see README.md); this must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError, JobFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "cstarmech"
MODULES = ("algebra", "states", "sampling", "spectral", "gns", "weyl",
           "dynamics", "classical", "serialization", "cli")
SETUP_REPEATS = 12
WARMUP_BASE = 10**9   # job indices of warm-up jobs, apart from measured ones


def import_program() -> SimpleNamespace:
    """Import cstarmech afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup_once(workload_cls, workdir: Path, seed: int, k: int):
    t0 = time.perf_counter()
    cs = import_program()
    wl = workload_cls(cs, workdir)
    spec = wl.make_input(seed, WARMUP_BASE + k)
    result = wl.run(spec)
    elapsed = time.perf_counter() - t0
    wl.check(spec, result)
    return wl, elapsed


def measure(workload_cls, workdir: Path, seed: int, seconds: float, tracer):
    """Run jobs for ``seconds``. The set-ups are spread evenly over the run,
    so that ``setup_s`` samples the host's drift in speed as the jobs do;
    at least one job runs between two set-ups.

    A job the program refuses (a CLI exit code other than 0 and the
    failed-check code) counts in ``failed``. A failed check, the program's
    own included, and any other exception are errors: the run is incorrect.
    """
    setups, latencies, failed, attempted, errors = [], [], 0, 0, []
    wl = None
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        k = len(setups)
        if k < SETUP_REPEATS and attempted >= k and now >= start + seconds * k / SETUP_REPEATS:
            tracer.uninstall()
            # free the previous import first, so that peak_rss_mb does not
            # count module copies that only wait for the cycle collector
            wl = None
            gc.collect()
            wl, elapsed = setup_once(workload_cls, workdir, seed, k)
            setups.append(elapsed)
            if tracer.active:
                tracer.install()
            continue
        spec = wl.make_input(seed, attempted)
        attempted += 1
        try:
            with tracer.span("bench.job"):
                t0 = time.perf_counter()
                result = wl.run(spec)
                t1 = time.perf_counter()
            latencies.append(t1 - t0)
            with tracer.paused():
                wl.check(spec, result)
        except JobFailed:
            failed += 1
            if failed == 1:
                traceback.print_exc()
        except CheckError as exc:
            errors.append(f"job {attempted - 1}: {exc}")
        except Exception as exc:
            if not errors:
                traceback.print_exc()
            errors.append(f"job {attempted - 1}: {type(exc).__name__}: {exc}")
    return setups, latencies, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    import scipy.linalg  # noqa: F401  third-party imports stay out of setup_s
    # peak_rss_mb counts only what lies above this: the interpreter, numpy, scipy
    base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    workdir = HERE / "out" / f"run-{os.getpid()}"
    tracer = Tracer()
    tracer.active = bool(args.trace)
    try:
        setups, latencies, attempted, failed, errors = measure(
            WORKLOADS[args.workload], workdir, args.seed, args.seconds, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    done = len(latencies)
    if done == 0:
        print("no job completed", file=sys.stderr)
        return 1
    if args.trace:
        per_layer = tracer.per_job(done)
        per_layer["trace.jobs_per_s"] = (done / sum(latencies), "1/s")
        tracer.write(HERE / "out" / f"trace-{args.workload}.npz")
        metrics = per_layer
    else:
        p50, p90 = np.percentile(1e3 * np.array(latencies), [50, 90])
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base_rss
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (done / sum(latencies), "1/s"),
            "job_p50_ms": (float(p50), "ms"),
            "job_p90_ms": (float(p90), "ms"),
            "peak_rss_mb": (peak_rss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
