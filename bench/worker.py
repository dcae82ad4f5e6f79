"""One benchmark process: import qsdp, warm up, run passes over a workload.

    python3 bench/worker.py setup
    python3 bench/worker.py run --workload NAME --seed N --seconds T [--max-passes K]
                                [--trace-file F [--untraced-passes U]] [--smoke]

``run.py`` starts this script in a fresh process (so peak RSS and set-up time
belong to one workload) with ``src`` on PYTHONPATH.  The last line of stdout
is a JSON document; ``ready`` is the CLOCK_MONOTONIC reading after import and
warm-up, which the parent subtracts from its own reading at spawn time.  With
``--trace-file`` the tracer is installed after the first U passes, so one
process gives both the untraced and the traced time of a pass.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np
import scipy

import workloads  # imports qsdp: part of the set-up time
from tracer import Tracer


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_meta() -> dict:
    """BLAS library and thread count as this process sees them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg, mod in (("numpy", np), ("scipy", scipy)):
        for path in glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir, f"{pkg}.libs", "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[pkg] = fn()
                    break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_pass(instances, tracer):
    outcomes = []
    for inst in instances:
        with tracer.instance(inst.name) if tracer else nullcontext():
            try:
                out = inst.run()
            except Exception as exc:  # a failing instance is counted, never raised
                out = workloads.Outcome(inst.name, errors=[f"{type(exc).__name__}: {exc}"])
        outcomes.append(out)
    return outcomes


def layer_counts(tracer) -> dict:
    """Sizes read from what the traced calls returned during the pass."""
    stats = [workloads.problem_stats(cm.problem) for cm in tracer.results.get("modeling.compile", [])]
    entries = sum(s["m"] * (sum(n * n for n in s["block_sizes"]) + s["nonneg_dim"] + s["free_dim"]) for s in stats)
    nnz = sum(s["a_nnz"] for s in stats)
    moments = tracer.results.get("npa.build_moment_model", [])
    biggest = max(moments, key=lambda mm: mm.size, default=None)
    return {
        "modeling.m": sum(s["m"] for s in stats),
        "modeling.a_nnz": nnz,
        "modeling.a_density": nnz / entries if entries else 0.0,
        "npa.moment_size": biggest.size if biggest else 0,
        "npa.unknowns": biggest.num_unknowns if biggest else 0,
        "sdpa.bytes": sum(len(t.encode()) for t in tracer.results.get("sdpa.write", [])),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-passes", type=int, default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--untraced-passes", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    workloads.warm_up()
    ready = clock()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    instances = workloads.make_instances(args.workload, args.seed, args.smoke)
    ipm = workloads.ipm
    iterations = [0]
    solve = ipm.solve

    def counting_solve(*a, **k):
        sol, log = solve(*a, **k)
        iterations[0] += int(sol.stats.get("iterations", 0))
        return sol, log

    ipm.solve = counting_solve
    tracer = None

    passes, records = [], None
    start = clock()
    while True:
        if args.trace_file and tracer is None and len(passes) >= args.untraced_passes:
            tracer = Tracer()
            tracer.install()
        iterations[0] = 0
        t0 = clock()
        outcomes = run_pass(instances, tracer)
        seconds = clock() - t0
        failed = [o for o in outcomes if o.errors]
        passes.append(
            {
                "seconds": seconds,
                "traced": tracer is not None,
                "ipm_iterations": iterations[0],
                "attempted": len(outcomes),
                "failed": len(failed),
                "errors": {o.name: o.errors for o in failed},
            }
        )
        if records is None:
            records = [o.record() for o in outcomes]
        del outcomes, failed
        if len(passes) >= args.max_passes if args.max_passes else clock() - start >= args.seconds:
            break

    result = {
        "ready": ready,
        "passes": passes,
        "instances": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": blas_meta(),
    }
    if tracer:
        result["layers"] = tracer.layers()
        result["counts"] = layer_counts(tracer)
        tracer.dump(args.trace_file)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
