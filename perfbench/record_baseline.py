"""Run every workload on ten seeds and record the baseline.

    python3 perfbench/record_baseline.py

Run from the repository root. For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median next to the metric's bound, then
rewrites ``perfbench/baseline.json`` with the environment, every
workload's figures and the digest of each seed's outputs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def environment() -> dict:
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_workers": {"policy_study": 2, "abm_scale": 1, "solver_loops": 1, "welfare_grid": 1},
    }


def run(workload: str, seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"environment": environment(), "run_seconds": spec["run_seconds"],
                "baseline": {}, "digests": {}}
    worst = 0.0
    for workload in spec["workloads"]:
        name = workload["name"]
        results = [run(name, seed) for seed in range(SEEDS)]
        entry = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            entry[metric["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                     "unit": metric["unit"], "values": values}
            print(f"{name} {metric['name']}: median {q2:.6g} {metric['unit']}, quartiles "
                  f"{q1:.6g}..{q3:.6g}, spread {spread:.3f} (bound {metric['bound']})", flush=True)
        baseline["baseline"][name] = entry
        baseline["digests"][name] = {str(seed): digest for seed, (_, digest) in enumerate(results)}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
