"""Run every workload over several seeds and report each end-to-end metric's
median and spread (interquartile distance over median) against its bound.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs are sequential.  The exit code is 1 if any run failed or gave a wrong
answer, or if a spread (setup_s excepted) exceeds a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct") or result.get("failed"):
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
            ok &= steady
            print(f"  {name} {metric['name']}: median {med:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']})"
                  + ("" if steady else "  <-- above a third of the bound"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
