"""One trial of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/bench_trial.py --workload NAME
--seed N --store DIR --t0 T [--scale S] [--traced --spans FILE]``, where
``T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so set-up time covers
interpreter start, imports and registry, task planning and pool or worker
spawn up to the first task start; it is reported at the reference speed
of :class:`SpeedProbe`, sampled as the process begins and while it sets
up.

A trial runs every sweep of the workload cold into the fresh result store
``DIR``, then :data:`WARM_REPEATS` times with ``resume=True`` (the warm
pass, which only reads), and prints one JSON object: timings, per-task
seconds, row digests and correctness verdicts.  With ``--traced`` it also
installs the :class:`bench_trace.Tracer` wrappers, profiles the serial
simulation of the task list with ``cProfile`` (the cold pass itself for
the serial backend, a separate uncached serial pass for the pooled ones)
and adds the per-layer numbers under ``"trace"``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import select
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: warm passes per trial: enough for a steady median, few enough that a
#: 30 s run fits seven trials of a 256-task fanout workload
WARM_REPEATS = 15
#: speed samples taken before each pooled sweep (they scale set-up time)
POOLED_SAMPLES = 3
#: iterations of the speed probe's loop, and the loop's time at the full
#: speed of the reference host (a 2-CPU x86-64 virtual machine, CPython
#: 3.11)
PROBE_ITERATIONS = 40_000
REFERENCE_PROBE_S = 0.0042
#: the CPU sampler's shorter loop and the pause between its samples
SAMPLER_ITERATIONS = 10_000
SAMPLER_INTERVAL_S = 0.025


def _probe_loop(iterations: int, clock=time.perf_counter) -> float:
    """``clock`` seconds of a fixed pure-Python loop of ``iterations``."""
    started = clock()
    table: Dict[int, int] = {}
    for index in range(iterations):
        key = index & 1023
        table[key] = table.get(key, 0) + index
    return clock() - started


class SpeedProbe:
    """Samples the host's current speed with a fixed pure-Python loop.

    The benchmark host shares its CPUs: for seconds to minutes at a time it
    runs the same code up to ~2x slower, which moves a sweep's wall time by
    far more than the bounds a change is judged by.  Timing this loop
    during set-up, before, between the tasks of, and after a serial sweep,
    and after each warm pass measures the speed the
    work ran at, so it can be reported at the reference speed: ``seconds *
    REFERENCE_PROBE_S / mean(samples)``.  On ``coupled_room`` this cut the
    trial-to-trial variation of the sweep wall from 19% to 4%.  The loop
    is the benchmark's own code, so no change to the program can move it;
    its own time is taken out of the sweep's wall.  Pooled sweeps are
    measured by :class:`CpuSampler` instead.
    """

    def __init__(self):
        self.samples: List[float] = []
        #: seconds spent sampling so far
        self.spent = 0.0
        #: ``time.monotonic()`` at the end of each sample
        self.ended: List[float] = []

    def sample(self) -> None:
        elapsed = _probe_loop(PROBE_ITERATIONS)
        self.samples.append(elapsed)
        self.spent += elapsed
        self.ended.append(time.monotonic())

    def spent_until(self, moment: float) -> float:
        """Seconds spent sampling before ``moment``."""
        return sum(seconds for seconds, ended in zip(self.samples, self.ended)
                   if ended <= moment)

    def factor_until(self, moment: float) -> float:
        """Reference-speed factor of the samples ended by ``moment``."""
        return REFERENCE_PROBE_S / statistics.mean(
            seconds for seconds, ended in zip(self.samples, self.ended)
            if ended <= moment)

    def factor(self, first: int) -> float:
        """Reference-speed factor of the samples from index ``first`` on."""
        return REFERENCE_PROBE_S / statistics.mean(self.samples[first:])


class CpuSampler:
    """Samples the speed of every CPU while a pooled sweep runs.

    The host's CPUs change speed independently of each other, up to ~1.7x
    and for a fraction of a second to several seconds at a time, so a
    pooled sweep, which runs on all of them, cannot be brought to the
    reference speed by samples taken before and after it.  As a context
    manager this forks one sampler process per CPU, pinned to it, that
    times a short loop in its own CPU time (waiting for the CPU does not
    count) every :data:`SAMPLER_INTERVAL_S` until the block ends.  The
    samplers take a few percent of each CPU, the same in every run.
    """

    def __enter__(self) -> "CpuSampler":
        self.samples: List[List[float]] = []
        #: CPU seconds the samplers used (they count as this process's
        #: children)
        self.cpu_seconds = 0.0
        self.failed = False
        self._children = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._children.append(self._fork(cpu))
        except BaseException:
            self.__exit__()
            raise
        return self

    @staticmethod
    def _fork(cpu: int):
        stop_read, stop_write = os.pipe()
        out_read, out_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(stop_write)
                os.close(out_read)
                os.sched_setaffinity(0, {cpu})
                samples = []
                while True:
                    samples.append(_probe_loop(SAMPLER_ITERATIONS,
                                               time.thread_time))
                    if select.select([stop_read], [], [],
                                     SAMPLER_INTERVAL_S)[0]:
                        break
                with os.fdopen(out_write, "w") as out:
                    json.dump({"samples": samples,
                               "cpu": time.process_time()}, out)
                code = 0
            finally:
                os._exit(code)
        os.close(stop_read)
        os.close(out_write)
        return pid, stop_write, out_read

    def __exit__(self, *_exc) -> None:
        for _pid, stop_write, _out in self._children:
            os.close(stop_write)
        for pid, _stop, out_read in self._children:
            with os.fdopen(out_read) as out:
                text = out.read()
            os.waitpid(pid, 0)
            if text:
                report = json.loads(text)
                self.samples.append(report["samples"])
                self.cpu_seconds += report["cpu"]
            else:
                self.failed = True
        self._children = []

    def factor(self) -> float:
        """Reference-speed factor: the mean over CPUs of each CPU's mean
        sample, against the reference host's time for the loop."""
        if self.failed or not self.samples:
            raise RuntimeError("a CPU sampler reported no samples")
        reference = REFERENCE_PROBE_S * SAMPLER_ITERATIONS / PROBE_ITERATIONS
        return reference / statistics.mean(
            statistics.mean(samples) for samples in self.samples)


class _Recorder:
    """Progress callback keeping ``(event, task key, time)`` of real runs.

    Start events of the pool backends arrive on a helper thread; appending
    to a list is atomic, and the list is only read after the sweep.  With
    a probe (serial backend only: its callbacks run between tasks on the
    sweep's own thread) every task start also samples the host speed.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None):
        self.events: List[Tuple[str, tuple, float]] = []
        self.probe = probe

    def __call__(self, progress) -> None:
        if progress.cached:
            return
        if self.probe is not None and progress.event == "start":
            self.probe.sample()
        self.events.append((progress.event,
                            (progress.experiment, progress.point_index,
                             progress.replication), time.monotonic()))

    def first_start(self) -> float:
        return min(t for event, _key, t in self.events if event == "start")

    def task_seconds(self) -> List[Tuple[str, float]]:
        """``(experiment, seconds from start to done)`` per task."""
        started: Dict[tuple, float] = {}
        seconds = []
        for event, key, moment in self.events:
            if event == "start":
                started[key] = moment
            elif key in started:
                seconds.append((key[0], moment - started.pop(key)))
        return seconds


def _digest(result) -> str:
    return hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()


def bound_failures(result) -> int:
    """Points whose admitted GS flows broke the paper's delay bound.

    ``figure5`` rows carry ``admitted`` / ``gs_bound_violated``,
    ``delay_compliance`` rows carry ``bound_respected`` per flow; a point
    fails if any of its rows does.
    """
    failed_points = set()
    for row in result.rows:
        mean = row["mean"]
        point = json.dumps(row["point"], sort_keys=True)
        if "gs_bound_violated" in mean and (
                mean["gs_bound_violated"] is not False
                or mean.get("admitted") is not True):
            failed_points.add(point)
        if "bound_respected" in mean and mean["bound_respected"] is not True:
            failed_points.add(point)
    return len(failed_points)


def _slots(runner, sweep, seed: int) -> float:
    """Simulated piconet-slots of one sweep's task list."""
    from repro.experiments.registry import get_experiment
    from bench_workloads import SLOTS_PER_SECOND
    tasks = runner.tasks_for(get_experiment(sweep.experiment),
                             sweep.overrides, sweep.replications, seed)
    return sum(float(task.params["duration_seconds"]) * SLOTS_PER_SECOND
               * int(task.params.get("piconets", 1)) for task in tasks)


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (``VmHWM``).

    ``ru_maxrss`` would not do: Linux keeps it across ``execve``, so it
    would carry the peak of the process that started this one.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_trial(workload, seed: int, store: str, t0: float, probe: SpeedProbe,
              traced: bool = False, spans_path: Optional[str] = None
              ) -> Dict[str, object]:
    """Run the trial; ``probe`` holds a sample taken as the process began."""
    import repro.experiments  # noqa: F401  (registers every experiment)
    from repro.experiments.orchestrator import SweepRunner

    tracer = None
    if traced:
        from bench_trace import Tracer
        tracer = Tracer().install()
    # the serial backend's cold pass is profiled in place; the pooled
    # backends' simulation runs in workers, so it is profiled separately
    profile = cProfile.Profile() if traced and not workload.pooled else None
    recorder = _Recorder(
        probe if not workload.pooled and profile is None else None)
    runner = SweepRunner(max_workers=workload.workers,
                         backend=workload.backend, cache_dir=store,
                         progress=recorder)
    calls: List[Tuple[float, float]] = []
    if traced:
        _time_backend_calls(runner.backend, calls)

    # a pooled sweep runs on every CPU, where the probe would compete with
    # the workers and see the speed of one CPU only: the CPU sampler
    # measures every CPU while the sweep runs, and the whole wall is
    # brought to the reference speed, as for a serial sweep
    cold_walls, ref_walls, factors, results = [], [], [], []
    children_cpu = _children_cpu_seconds()
    # when the first sweep began, and how long its samplers took to start
    sweep_started: Optional[float] = None
    sampler_start_s = 0.0
    probe.sample()
    if profile is not None:
        profile.enable()
    for sweep in workload.sweeps:
        if workload.pooled:
            for _sample in range(POOLED_SAMPLES):
                probe.sample()
        first, spent = len(probe.samples) - 1, probe.spent
        entered = time.monotonic()
        with CpuSampler() if workload.pooled else nullcontext() as sampler:
            started = time.monotonic()
            if sweep_started is None:
                sweep_started, sampler_start_s = started, started - entered
            results.append(runner.run(sweep.experiment, sweep.overrides,
                                      sweep.replications, master_seed=seed))
            wall = time.monotonic() - started - (probe.spent - spent)
        cold_walls.append(wall)
        if workload.pooled:
            children_cpu += sampler.cpu_seconds
            factors.append(sampler.factor())
            ref_walls.append(wall * factors[-1])
        elif profile is None:
            probe.sample()
            factors.append(probe.factor(first))
            ref_walls.append(wall * factors[-1])
    if profile is not None:
        profile.disable()
        probe.sample()
        factors = [probe.factor(0)] * len(results)
        ref_walls = [wall * factor
                     for wall, factor in zip(cold_walls, factors)]
    children_cpu = _children_cpu_seconds() - children_cpu

    # the warm pass takes milliseconds: sample the speed around each of
    # several repeats and keep the median
    warm_walls, warm_results = [], []
    for _repeat in range(WARM_REPEATS):
        started = time.monotonic()
        warm_results.append([
            runner.run(sweep.experiment, sweep.overrides,
                       sweep.replications, master_seed=seed, resume=True)
            for sweep in workload.sweeps])
        wall = time.monotonic() - started
        probe.sample()
        warm_walls.append(wall * probe.factor(len(probe.samples) - 2))

    factor_of = {sweep.experiment: factor
                 for sweep, factor in zip(workload.sweeps, factors)}
    first_start = recorder.first_start()
    # the probe's and the samplers' own time is not set-up, and the rest is
    # scaled by the speed it ran at: the probe's samples taken while
    # setting up (at process start, after the imports, and at the first
    # task start on the serial backend or before the first sweep on the
    # pooled ones); a pooled sweep's pool or worker spawn, from the sweep's
    # start to its first task start, runs on every CPU and is scaled by
    # the CPU samplers
    if workload.pooled:
        setup = (sweep_started - t0 - probe.spent_until(sweep_started)
                 - sampler_start_s) * probe.factor_until(sweep_started) \
            + (first_start - sweep_started) * factors[0]
    else:
        setup = (first_start - t0 - probe.spent_until(first_start)) \
            * probe.factor_until(first_start)
    out: Dict[str, object] = {
        "setup_s": setup,
        "sweep_wall_s": sum(cold_walls),
        "sweep_wall_ref_s": sum(ref_walls),
        "warm_wall_ref_s": statistics.median(warm_walls),
        "task_seconds_ref": [seconds * factor_of[experiment] for
                             experiment, seconds in recorder.task_seconds()],
        "peak_rss_mb": _peak_rss_mb(),
        "digests": {}, "bound_failures": 0, "tasks": 0, "sim_slots": 0.0,
        "warm_ok": all(again.tasks_run == 0
                       and again.to_json() == cold.to_json()
                       for warm in warm_results
                       for again, cold in zip(warm, results)),
    }
    for sweep, result in zip(workload.sweeps, results):
        out["digests"][sweep.experiment] = _digest(result)
        out["tasks"] += result.tasks_total
        out["sim_slots"] += _slots(runner, sweep, seed)
        if workload.gs_bound_check:
            out["bound_failures"] += bound_failures(result)
    if traced:
        profiled_wall = sum(cold_walls)
        if profile is None:
            profile, profiled_wall = _profile_serially(workload, seed)
        # a pooled task's start-to-done time includes waiting for its
        # chunk and for earlier chunks, so the workers' busy time is their
        # CPU time (they are reaped when the sweep ends)
        busy = children_cpu if workload.pooled else sum(
            seconds for _experiment, seconds in recorder.task_seconds())
        out["trace"] = _trace_metrics(
            workload, runner, tracer, recorder, calls, sum(cold_walls),
            busy, profile, profiled_wall)
        tracer.restore()
        if spans_path:
            Path(spans_path).write_text(json.dumps(
                [span.to_list() for span in tracer.spans]), encoding="utf-8")
    return out


def _time_backend_calls(backend, calls: List[Tuple[float, float]]) -> None:
    """Record ``(entry, exit)`` of every backend call that has work."""
    original = backend.execute

    def execute(pending):
        if not pending:
            return
        entered = time.monotonic()
        yield from original(pending)
        calls.append((entered, time.monotonic()))

    backend.execute = execute


def _profile_serially(workload, seed: int):
    """Profile an uncached serial run of the workload's task list."""
    from repro.experiments.orchestrator import SweepRunner
    serial = SweepRunner(max_workers=1, backend="serial")
    profile = cProfile.Profile()
    started = time.monotonic()
    profile.enable()
    for sweep in workload.sweeps:
        serial.run(sweep.experiment, sweep.overrides, sweep.replications,
                   master_seed=seed)
    profile.disable()
    return profile, time.monotonic() - started


def _trace_metrics(workload, runner, tracer, recorder, calls, cold_wall,
                   busy, profile, profiled_wall) -> Dict[str, float]:
    from bench_trace import BAILOUT_REASONS, LAYERS, layer_profile
    from repro.baseband import fec

    # spawn/register: backend entry to its first task start; drain: last
    # task done to backend return
    spawn = drain = 0.0
    for entered, left in calls:
        inside = [(event, t) for event, _key, t in recorder.events
                  if entered <= t <= left]
        spawn += min(t for event, t in inside if event == "start") - entered
        drain += left - max(t for event, t in inside if event == "done")
    stats = getattr(runner.backend, "last_stats", None) or {}
    counts = tracer.counts
    self_seconds, call_counts = layer_profile(profile)
    transactions = counts["transactions"]
    metrics = {f"{layer}.self_s": self_seconds[layer]
               for layer in LAYERS + ("other",)}
    metrics.update(call_counts)
    metrics.update({
        "sim.events_per_txn": call_counts["sim.events"] / max(1, transactions),
        "piconet.transactions": transactions,
        "piconet.kernel_windows": counts["kernel_windows"],
        "piconet.kernel_txn_frac": counts["kernel_transactions"]
        / max(1, transactions),
        "baseband.interference_failures": counts["interference_failures"],
        "baseband.retransmissions": counts["retransmissions"],
        "scenario.compile_s": tracer.total("compile"),
        "experiments.aggregate_s": tracer.total("aggregate"),
        "experiments.chunks": counts["pool_submissions"]
        + stats.get("chunks_dispatched", 0),
        "experiments.dispatch_overhead_s": cold_wall
        - busy / workload.workers,
        "experiments.worker_busy_frac": busy / (workload.workers * cold_wall),
        "fabric.store_puts": counts["store_puts"],
        "fabric.store_put_s": tracer.total("store_put"),
        "fabric.store_gets": counts["store_gets"],
        "fabric.store_get_s": tracer.total("store_get"),
        "fabric.store_hit_frac": counts["store_hits"]
        / max(1, counts["store_gets"]),
        "fabric.spawn_register_s": spawn,
        "fabric.drain_s": drain,
        "trace.unattributed_frac": 1.0 - sum(self_seconds.values())
        / profiled_wall,
    })
    for name in ("chunks_dispatched", "chunks_stolen", "chunks_retried",
                 "workers_lost"):
        metrics[f"fabric.{name}"] = stats.get(name, 0)
    for reason in BAILOUT_REASONS:
        metrics[f"piconet.kernel_bailouts.{reason}"] = \
            counts[f"bailout_{reason}"]
    fec_stats = fec.cache_stats().values()
    hits = sum(entry["hits"] for entry in fec_stats)
    misses = sum(entry["misses"] for entry in fec_stats)
    metrics["baseband.fec_hit_frac"] = hits / max(1, hits + misses)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.sample()
    sys.path.insert(0, str(ROOT / "src"))
    from bench_workloads import get_workload
    result = run_trial(get_workload(args.workload, args.scale), args.seed,
                       args.store, args.t0, probe, args.traced, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
