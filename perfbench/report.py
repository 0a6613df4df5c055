"""Run every workload untraced and traced, print all tables, and record them.

Usage (from the repository root)::

    python3 perfbench/report.py --seed 0 --seconds 30 [--record]

Prints each workload's end-to-end metrics (median, unit, spread and sample
count) and its traced per-layer table.  With ``--record`` it also writes
``perfbench/baseline.json``: the machine fingerprint, the commit measured
and every metric of every workload, the baseline later changes compare
against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_workloads import UNGATED, WORKLOAD_NAMES, get_workload  # noqa: E402


def fingerprint() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    memory = next((line.split(":", 1)[1].strip()
                   for line in Path("/proc/meminfo").read_text().splitlines()
                   if line.startswith("MemTotal")), "?")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu": model, "cpus": os.cpu_count(), "memory": memory,
            "platform": platform.platform(),
            "python": platform.python_version(), "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--record", action="store_true",
                        help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    baseline = {"fingerprint": fingerprint(), "seed": args.seed,
                "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        workload = get_workload(name)
        entry = {"backend": workload.backend, "workers": workload.workers,
                 "sweeps": [sweep.to_dict() for sweep in workload.sweeps],
                 "in_benchmark_json": name not in UNGATED}
        for trace in (False, True):
            print(f"\n=== {name} ({'traced' if trace else 'end to end'})")
            result = run.run_benchmark(name, args.seed, args.seconds, trace)
            entry["per_layer" if trace else "end_to_end"] = {
                metric: value["value"]
                for metric, value in result["metrics"].items()}
            entry["traced_correct" if trace else "correct"] = \
                result["correct"]
        baseline["workloads"][name] = entry
    if args.record:
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
