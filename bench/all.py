"""Run every workload of BENCHMARK.json once and print its metrics as a table.

    python3 bench/all.py [--seed N] [--trace 0|1] [--smoke]

Exits non-zero when a workload fails to run or an instance fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    print(f"{'workload':<14} {'metric':<34} {'value':>14} unit")
    for w in spec["workloads"]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            print(f"{w['name']:<14} failed to run: {r.stderr.strip()}")
            ok = False
            continue
        result = json.loads(r.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            print(f"{w['name']:<14} {name:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"{w['name']:<14} {'instances failed / attempted':<34} {result['failed']:>8} / {result['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
