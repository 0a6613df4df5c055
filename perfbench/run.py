"""The repository benchmark: one workload, timed end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_piconet --seed 0 \\
        --seconds 30 --trace 0

Each trial is a fresh interpreter (``bench_trial.py``) that runs the
workload's sweeps cold into a fresh result store and then warm; trials
repeat until ``--seconds`` are used up and every end-to-end metric is the
median over trials.  ``--trace 1`` instead alternates untraced and traced
trials and reports the per-layer metrics.  The correctness gate
(``bench_gate.py``) runs outside the timed trials.

Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root.  The human-readable tables go to standard output and the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_workloads import WORKLOAD_NAMES, get_workload  # noqa: E402

#: fewest trials of each kind a run makes, whatever ``--seconds`` says
MIN_TRIALS = 3
MIN_TRACED_TRIALS = 2
#: one trial may not take longer than this (it is killed and counted failed)
TRIAL_TIMEOUT_S = 150.0
#: the traced run's layer self times plus ``other`` must cover its wall
#: time to within this share
ATTRIBUTION_TOLERANCE = 0.10
#: counts that must repeat exactly between traced trials of one seed
EXACT_COUNTS = (
    "sim.events", "piconet.transactions", "piconet.kernel_windows",
    "piconet.kernel_bailouts.sco", "piconet.kernel_bailouts.bridge",
    "piconet.kernel_bailouts.horizon", "piconet.kernel_bailouts.adaptive_flip",
    "piconet.kernel_bailouts.topology", "baseband.transmits",
    "baseband.collision_lookups", "baseband.interference_failures",
    "baseband.retransmissions", "core.gs_polls", "schedulers.selects",
    "traffic.packets_offered", "fabric.chunks_dispatched",
    "fabric.store_puts")


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def load_catalogue() -> Dict[str, List[dict]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchmarkError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _check_tree() -> None:
    for needed in (ROOT / "src" / "repro" / "__init__.py",
                   ROOT / "tests" / "golden"):
        if not needed.exists():
            raise BenchmarkError(
                f"{needed} is missing: run from a full source checkout")


# ------------------------------------------------------------------ trials

def _child_env() -> Dict[str, str]:
    """The trial's environment: temporary files in its working directory.

    The sweep runner's ``multiprocessing.Manager`` binds a unix socket in a
    fresh directory under ``TMPDIR``.  A trial runs in the benchmark's work
    directory with ``TMPDIR=.``, so that socket stays inside the checkout.
    CPython before 3.12 keeps the socket's path relative, so it stays under
    the 107-byte limit of a socket path however deep the checkout lies.
    """
    env = os.environ.copy()
    env["TMPDIR"] = "."
    return env


def run_trial(workload, seed: int, work: Path, index: int,
              traced: bool = False) -> Optional[dict]:
    """One trial in a fresh interpreter; ``None`` if it failed."""
    store = work / f"store-{index}"
    command = [sys.executable, str(HERE / "bench_trial.py"),
               "--workload", workload.name, "--scale", workload.scale,
               "--seed", str(seed), "--store", str(store)]
    if traced:
        command += ["--traced", "--spans",
                    str(work / f"spans-{workload.name}-{index}.json")]
    t0 = time.monotonic()
    process = subprocess.Popen(
        command + ["--t0", repr(t0)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=_child_env(), cwd=work,
        start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the trial's session holds its pool or fabric workers too
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if process.returncode == 0:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    sys.stderr.write(f"trial {index} failed ({process.returncode}):\n"
                     f"{stderr[-4000:]}\n")
    return None


# ---------------------------------------------------------------- statistics

def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0


def tail_percentile(samples: List[float]) -> tuple:
    """``(value, percentile, beyond)``: p90 if at least ten samples lie
    beyond it, else the highest percentile that has ten beyond."""
    ordered = sorted(samples)
    count = len(ordered)
    rank = max(0, min(math.ceil(0.9 * count) - 1, count - 11))
    return ordered[rank], 100.0 * (rank + 1) / count, count - rank - 1


# ------------------------------------------------------------------- report

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _points(trials: List[dict]) -> List[float]:
    """Every task's reference-speed seconds, pooled over trials."""
    return [seconds for trial in trials
            for seconds in trial["task_seconds_ref"]]


def end_to_end(trials: List[dict], units: Dict[str, str]) -> Dict[str, dict]:
    """End-to-end metrics: medians over the untraced trials.

    Sweep times are at the reference host speed (see
    ``bench_trial.SpeedProbe``); set-up time and memory are as measured.
    """
    def median(key):
        return statistics.median(trial[key] for trial in trials)

    values = {
        "setup_s": median("setup_s"),
        "sweep_wall_s": median("sweep_wall_ref_s"),
        "sim_slots_per_s": statistics.median(
            t["sim_slots"] / t["sweep_wall_ref_s"] for t in trials),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    return {name: _metric(values[name], units[name]) for name in units}


def per_layer(traced: List[dict], untraced: List[dict],
              units: Dict[str, str]) -> Dict[str, dict]:
    traces = [trial["trace"] for trial in traced]
    traced_wall = statistics.median(t["sweep_wall_ref_s"] for t in traced)
    values = {
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / statistics.median(
            t["sweep_wall_ref_s"] for t in untraced) - 1.0,
    }
    for name, unit in units.items():
        if name not in values:
            # a count stays a count that was observed
            middle = statistics.median_low if unit == "count" \
                else statistics.median
            values[name] = middle(t[name] for t in traces)
    return {name: _metric(values[name], units[name]) for name in units}


def _print_end_to_end(trials, metrics) -> None:
    """The metrics, then figures printed without a bound: the warm pass,
    the per-task median and tail, the sweep wall in host time."""
    points = _points(trials)
    tail, percentile, beyond = tail_percentile(points)
    host = [t["sweep_wall_s"] for t in trials]
    per_trial = {
        "setup_s": [t["setup_s"] for t in trials],
        "sweep_wall_s": [t["sweep_wall_ref_s"] for t in trials],
        "sim_slots_per_s": [t["sim_slots"] / t["sweep_wall_ref_s"]
                            for t in trials],
        "peak_rss_mb": [t["peak_rss_mb"] for t in trials]}
    rows = [(name, metric["value"], metric["unit"], per_trial[name], "")
            for name, metric in metrics.items()]
    warm = [t["warm_wall_ref_s"] for t in trials]
    rows += [("warm_wall_s", statistics.median(warm), "s", warm, ""),
             ("point_s_p50", statistics.median(points), "s", points, ""),
             (f"point_s_p{percentile:.0f}", tail, "s", points,
              f", {beyond} beyond"),
             ("host_sweep_wall_s", statistics.median(host), "s", host, "")]
    print(f"{'metric':<18} {'median':>12} {'unit':<5} {'iqr/med':>7}  "
          "samples")
    for name, value, unit, values, note in rows:
        kind = "task runs" if values is points else "trials"
        print(f"{name:<18} {value:>12.6g} {unit:<5} {spread(values):>7.3f}  "
              f"{len(values)} {kind}{note}")


def _print_layers(metrics: Dict[str, dict]) -> None:
    from bench_trace import LAYERS
    total = sum(metrics[f"{layer}.self_s"]["value"]
                for layer in LAYERS + ("other",))
    print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
    for layer in LAYERS + ("other",):
        value = metrics[f"{layer}.self_s"]["value"]
        print(f"{layer:<12} {value:>10.4f} {value / total:>7.1%}")
    print()
    for name, metric in metrics.items():
        if not name.endswith(".self_s"):
            print(f"{name:<38} {metric['value']:>14.6g} {metric['unit']}")


# --------------------------------------------------------------------- main

def run_benchmark(workload_name: str, seed: int, seconds: float,
                  trace: bool, scale: str = "full",
                  work: Optional[Path] = None) -> dict:
    """Run one workload and return the result object (also printed)."""
    catalogue = load_catalogue()
    _check_tree()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import bench_gate

    workload = get_workload(workload_name, scale)
    if work is None:
        work = ROOT / ".perfbench-work" / workload.name
        shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)

    # users run from compiled bytecode: compile once, outside the trials
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    planned = bench_gate.planned_tasks(workload, seed)
    tasks_per_trial = sum(planned.values())
    golden_bad = bench_gate.golden_mismatches(workload.experiments)
    reference = bench_gate.serial_digests(workload, seed) \
        if workload.pooled else None

    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    problems: List[str] = [f"golden mismatch: {name}" for name in golden_bad]
    started = time.monotonic()
    index = 0
    while True:
        want_traced = trace and (len(traced) < MIN_TRACED_TRIALS
                                 and len(traced) <= len(untraced))
        result = run_trial(workload, seed, work, index, want_traced)
        index += 1
        attempted += tasks_per_trial
        if result is None:
            failed += tasks_per_trial
            problems.append(f"trial {index - 1} failed")
        else:
            failed += _gate_trial(result, planned, reference, golden_bad,
                                  untraced + traced, problems)
            (traced if want_traced else untraced).append(result)
        elapsed = time.monotonic() - started
        enough = len(untraced) >= (1 if trace else MIN_TRIALS) and (
            not trace or len(traced) >= MIN_TRACED_TRIALS)
        if index - len(untraced) - len(traced) >= MIN_TRIALS:
            break  # trials keep failing: stop early
        if enough and elapsed + elapsed / index > seconds:
            break

    if trace and len(traced) >= 2:
        problems += _check_traces(traced)
    units = {entry["name"]: entry["unit"] for entry in
             catalogue["per_layer" if trace else "end_to_end"]}
    metrics: Dict[str, dict] = {}
    print(f"workload {workload.name} (scale {scale}): {workload.backend} "
          f"backend, {workload.workers} worker(s), {tasks_per_trial} tasks "
          f"per trial, seed {seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced trials")
    if untraced and (traced or not trace):
        if trace:
            metrics = per_layer(traced, untraced, units)
            _print_layers(metrics)
        else:
            metrics = end_to_end(untraced, units)
            _print_end_to_end(untraced, metrics)
    else:
        problems.append("no successful trial")
    print(f"failed_frac {failed / max(1, attempted):.4f} "
          f"({failed} of {attempted} tasks)")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _gate_trial(result: dict, planned: Dict[str, int],
                reference: Optional[Dict[str, str]], golden_bad: List[str],
                earlier: List[dict], problems: List[str]) -> int:
    """Failed tasks of one trial; appends what went wrong to ``problems``."""
    failed = 0
    expected = reference or (earlier[0]["digests"] if earlier else None)
    for experiment, count in planned.items():
        if experiment in golden_bad:
            failed += count
        elif expected is not None and \
                result["digests"][experiment] != expected[experiment]:
            failed += count
            problems.append(f"{experiment} rows differ from the reference")
    if result["bound_failures"]:
        failed += result["bound_failures"]
        problems.append(
            f"{result['bound_failures']} point(s) broke the GS delay bound")
    if not result["warm_ok"]:
        failed += sum(planned.values())
        problems.append("warm pass did not reproduce the cold rows")
    return failed


def _check_traces(traced: List[dict]) -> List[str]:
    problems = []
    first = traced[0]["trace"]
    for other in traced[1:]:
        moved = [name for name in EXACT_COUNTS
                 if other["trace"][name] != first[name]]
        if moved:
            problems.append(f"counts differ between traced trials: {moved}")
    for trial in traced:
        unattributed = trial["trace"]["trace.unattributed_frac"]
        if abs(unattributed) > ATTRIBUTION_TOLERANCE:
            problems.append(
                f"layer self times leave {unattributed:.1%} of the traced "
                "wall unattributed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
