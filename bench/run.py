"""qsdp benchmark: time to a checked solution on three workloads.

    python3 bench/run.py --workload npa-i3322-l3 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout (``src/qsdp`` must exist; nothing is
installed).  Load is one process running one instance at a time (a closed
loop with one client); BLAS threads are set to the number of usable cores.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over several fresh processes), passes over the workload for at least
``--seconds`` seconds, peak RSS of the workload process, IPM iterations and
the share of instances that pass the correctness gate.

``--trace 1`` measures the per-layer metrics: an untraced pass and then a
traced pass in one fresh process (their difference is the tracing overhead),
and on npa-i3322-l3 also a traced pass with BLAS limited to one thread in
another.  It fails when a layer the workload must reach records no calls.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
metric names and units are those of BENCHMARK.json.  A full record (run
metadata, per-instance values and problem statistics) goes to
``.bench_results/`` in the checkout, and traced spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_results"
SETUP_SAMPLES = 5
DEADLINE_S = 175.0  # the whole run, every child process included
BLAS1_WORKLOAD = "npa-i3322-l3"  # traced once more with one BLAS thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXPECTED_LAYERS = {  # layers a traced run must reach, besides COMMON_LAYERS
    "npa-i3322-l3": ("npa.build_moment_model", "sdpa.write", "sdpa.parse"),
    "dps-channel": ("quantum.dps_test", "quantum.channel_feasibility"),
    "seesaw-pincer": ("seesaw.sweep", "npa.build_moment_model"),
}
COMMON_LAYERS = (
    "problem.validate",
    "problem.apply",
    "problem.adjoint",
    "ipm.solve",
    "ipm.newton_direction",
    "ipm.residuals",
    "ipm.step_length",
    "ipm.cold_start",
    "ipm.corrector_nu",
    "ipm.split_free",
    "blockmat.symblockmat_new",
    "blockmat.frobenius_inner",
    "modeling.compile",
    "modeling.recover",
    "report.dimacs_errors",
)


class BenchError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts worker processes under one deadline and collects their results."""

    def __init__(self, args):
        self.args = args
        self.deadline = clock() + DEADLINE_S
        self.nproc = len(os.sched_getaffinity(0))

    def spawn(self, mode: str, threads: int, *extra: str) -> tuple[float, dict]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env.update({k: str(threads) for k in BLAS_VARS})
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, *extra]
        if self.args.smoke:
            cmd.append("--smoke")
        remaining = self.deadline - clock()
        if remaining <= 0:
            raise BenchError("time budget exhausted before all processes ran")
        t_spawn = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget: {' '.join(cmd[2:])}") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: leave no process behind
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd[2:])}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return t_spawn, json.loads(lines[-1])

    def workload(self, threads: int, *extra: str) -> tuple[float, dict]:
        a = self.args
        return self.spawn("run", threads, "--workload", a.workload, "--seed", str(a.seed), *extra)


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        return {"n": len(s), "percentile": None, "value": None}
    return {"n": len(s), "percentile": 100.0 * (len(s) - 10) / len(s), "value": s[-11]}


def totals(docs: list[dict]) -> tuple[int, int]:
    passes = [p for d in docs for p in d["passes"]]
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    samples = []
    for _ in range(1 if runner.args.smoke else SETUP_SAMPLES - 1):
        t, doc = runner.spawn("setup", runner.nproc)
        samples.append(doc["ready"] - t)
    t, doc = runner.workload(runner.nproc, "--seconds", str(runner.args.seconds))
    samples.append(doc["ready"] - t)
    pass_s = [p["seconds"] for p in doc["passes"]]
    attempted, failed = totals([doc])
    metrics = {
        "time_to_solution_s": statistics.median(pass_s),
        "setup_s": statistics.median(samples),
        "peak_rss_mb": doc["peak_rss_mb"],
        "ipm_iterations": statistics.median(p["ipm_iterations"] for p in doc["passes"]),
        "passed_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_samples": samples, "time_to_solution_tail": tail(pass_s), "workload": doc}
    return metrics, detail


def per_layer(runner: Runner, spec: dict) -> tuple[dict, dict]:
    stem = OUT_DIR / f"{runner.args.workload}-seed{runner.args.seed}{'-smoke' if runner.args.smoke else ''}"
    _, traced = runner.workload(
        runner.nproc, "--max-passes", "2", "--untraced-passes", "1", "--trace-file", f"{stem}-spans.json"
    )
    plain_pass, traced_pass = traced["passes"]
    detail = {"traced": traced}
    if runner.args.workload == BLAS1_WORKLOAD:
        _, detail["single_thread"] = runner.workload(1, "--max-passes", "1", "--trace-file", f"{stem}-spans-blas1.json")

    expected = COMMON_LAYERS + EXPECTED_LAYERS[runner.args.workload]
    for label, doc in detail.items():
        missing = [n for n in expected if doc["layers"].get(n, {}).get("calls", 0) == 0]
        if missing:
            raise BenchError(f"{label} run recorded no calls for {missing}: a wrapper missed its target")

    layers = traced["layers"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    # layers this workload does not reach, and the single-thread pass where it is not run, read as zero
    metrics = {m["name"]: 0 for m in spec["per_layer"] if m["name"].endswith((".s", ".calls"))}
    for name, d in layers.items():
        if not name.startswith("instance:"):
            metrics[f"{name}.calls"] = d["calls"]
            if "self_s" in d:
                metrics[f"{name}.s"] = d["self_s"]
    metrics.update(traced["counts"])
    its = traced_pass["ipm_iterations"]
    solve_total = get("ipm.solve", "total_s")
    hot = sum(get(n, "total_s") for n in ("ipm.newton_direction", "ipm.residuals", "problem.validate"))
    hits = sum(r.get("restart_hits", 0) for r in traced["instances"])
    restarts = sum(r.get("restarts", 0) for r in traced["instances"])
    metrics.update(
        {
            "ipm.s_per_iteration": solve_total / its if its else 0.0,
            "ipm.hot_path_frac": hot / solve_total if solve_total else 0.0,
            "seesaw.restart_hit_ratio": hits / restarts if restarts else 0.0,
            "trace.overhead_s": traced_pass["seconds"] - plain_pass["seconds"],
        }
    )
    single = detail.get("single_thread")
    metrics["blas1.time_to_solution_s"] = single["passes"][0]["seconds"] if single else 0.0
    return metrics, detail


def source_meta() -> dict:
    """Git commit when the checkout is a repository, and a hash of the sources either way."""
    sha = None
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=10
        )
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small instances: checks the harness and the gate in seconds")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a running worker is stopped too

    if not (ROOT / "src" / "qsdp" / "__init__.py").is_file():
        print(f"error: no qsdp sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in EXPECTED_LAYERS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        metrics, detail = per_layer(runner, spec) if args.trace else end_to_end(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    docs = list(detail.values()) if args.trace else [detail["workload"]]
    attempted, failed = totals(docs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    record = {
        "argv": vars(args),
        "source": source_meta(),
        "runtime": docs[0]["meta"],
        "result": result,
        "detail": detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))

    src, rt = record["source"], record["runtime"]
    print(
        f"meta: git {src['git_sha']} src-sha256 {src['source_sha256'][:12]} seed {args.seed} "
        f"python {rt['python']} numpy {rt['numpy']} scipy {rt['scipy']} blas {rt['blas']} "
        f"threads {rt['blas_threads']} nproc {rt['nproc']}"
    )
    for m in wanted:
        print(f"{args.workload:<14} {m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']}")
    for doc in docs:
        for p in doc["passes"]:
            for inst, errors in p["errors"].items():
                print(f"FAILED {inst}: {'; '.join(errors)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
