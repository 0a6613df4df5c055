"""Parallel, replication-aware sweep execution for registered experiments.

The :class:`SweepRunner` turns an :class:`~repro.experiments.registry.
ExperimentSpec` into a list of (parameter point, seed replication) tasks,
hands them to a pluggable :class:`ExecutionBackend` (inline, one pool
submission per task, or chunked batches of tasks per submission),
aggregates the replications of every point into mean /
confidence-interval rows via :mod:`repro.analysis.stats`, and caches raw
task results as JSON on disk keyed by ``(experiment, params, seed)`` so
repeated sweeps are incremental.
A progress callback can be attached to observe every completed task (the
CLI's ``--progress`` flag wires it to a logging handler).

Determinism: every task's seed is derived from the master seed, the
experiment name, the canonical JSON of the point's parameters and the
replication index via the :func:`repro.sim.rng.derive_seed` scheme, and
aggregation happens in the parent process in task order — so a sweep's
result (including its JSON serialisation) is byte-identical no matter which
backend executed it or how many workers it used.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Callable, ClassVar, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.analysis.stats import aggregate_mean_ci
from repro.fabric.store import (ResultCache, SweepManifest, canonical_params,
                                entry_digest)
from repro.sim.rng import derive_seed

from repro.experiments.registry import ExperimentSpec, get_experiment


def worker_identity() -> str:
    """``host/pid`` of the current process — who executed a task.

    Progress events carry it (:attr:`SweepProgress.worker`) so
    :func:`log_progress` can show *where* each point ran: the parent
    process for the serial backend, a pool process for ``process`` /
    ``batch``, a named fabric worker (possibly on another host) for
    ``remote``.
    """
    return f"{socket.gethostname()}/{os.getpid()}"


def point_seed(master_seed: int, experiment: str,
               params: Mapping[str, object], replication: int) -> int:
    """Deterministic seed of one (experiment, point, replication) task."""
    label = f"{experiment}:{canonical_params(params)}:rep{replication}"
    return derive_seed(master_seed, label)


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: a parameter point under one replication seed."""

    experiment: str
    point_index: int
    replication: int
    params: Dict[str, object]
    seed: int


# ``ResultCache`` (the on-disk cache of raw task results, historically
# defined here) is now the content-addressed result store of the fabric:
# same layout, same addressing, plus atomic-write/quarantine/gc semantics
# and hit/miss counters.  See :mod:`repro.fabric.store`; re-imported above
# so ``from repro.experiments.orchestrator import ResultCache`` keeps
# working.


def execute_point(experiment: str, params: Dict[str, object],
                  seed: int) -> List[Dict]:
    """Run one task in the current process (also the worker entry point).

    Workers (fork or spawn) resolve ``experiment`` through the registry:
    importing this module first executes the ``repro.experiments`` package
    ``__init__``, which imports every driver and thereby registers all
    specs.
    """
    spec = get_experiment(experiment)
    rows = spec.run_point(dict(params), seed)
    if isinstance(rows, dict):
        rows = [rows]
    return list(rows)


def execute_chunk(tasks: Sequence[Tuple[str, Dict[str, object], int]],
                  start_queue=None,
                  start_tokens: Optional[Sequence[int]] = None
                  ) -> Tuple[str, List[List[Dict]], float]:
    """Worker entry point of the pool backends: run a chunk of tasks.

    Returns the executing worker's identity, one row list per task and the
    seconds the chunk took inside the worker.  The adaptive batching
    backend sizes future chunks from that measurement; timing inside the
    worker excludes the time the chunk spent queued behind busy workers,
    which would otherwise inflate the cost estimate by roughly the
    oversubscription factor.

    With ``start_queue``/``start_tokens`` the worker announces each task of
    the chunk as it *starts* (not just when the chunk's future resolves),
    so the parent's progress reporting ticks while long points run.
    """
    started = time.monotonic()
    identity = worker_identity()
    results = []
    for index, (experiment, params, seed) in enumerate(tasks):
        if start_queue is not None:
            start_queue.put((start_tokens[index], identity))
        results.append(execute_point(experiment, params, seed))
    return identity, results, time.monotonic() - started


class _StartReporter:
    """Ships per-task start notifications out of worker processes.

    A :mod:`multiprocessing` manager queue is handed to every worker
    submission (manager proxies — unlike raw ``multiprocessing.Queue``
    objects — survive pickling into :class:`~concurrent.futures.
    ProcessPoolExecutor` submissions under any start method); a daemon
    thread in the parent drains it and invokes the callback with each
    started slot.  One proxy round trip per task start is cheap next to a
    simulation point, and the whole machinery is only built when a
    progress callback is attached.
    """

    def __init__(self, callback: Callable[[int, Optional[str]], None]):
        self._callback = callback
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="sweep-start-reporter", daemon=True)

    def __enter__(self) -> "_StartReporter":
        self._thread.start()
        return self

    def _drain(self) -> None:
        while True:
            token = self.queue.get()
            if token is None:
                return
            # workers put ``(slot, worker_identity)`` pairs
            slot, worker = token if isinstance(token, tuple) else (token,
                                                                   None)
            try:
                self._callback(slot, worker)
            except Exception:  # never let a callback kill the drain thread
                progress_logger.exception("start-progress callback failed")

    def __exit__(self, *exc_info) -> None:
        self.queue.put(None)
        self._thread.join(timeout=10)
        self._manager.shutdown()


def _optional(context_manager):
    """Pass a context manager through, or a no-op one for ``None``."""
    return context_manager if context_manager is not None \
        else contextlib.nullcontext()


# ---------------------------------------------------------------- backends

#: what a backend consumes: ``(result slot, task)`` pairs
PendingTasks = Sequence[Tuple[int, SweepTask]]
#: what a backend yields: ``(result slot, task, result rows, worker id)``
CompletedTask = Tuple[int, SweepTask, List[Dict], Optional[str]]


class ExecutionBackend:
    """Strategy that executes a sweep's pending tasks.

    Implementations must yield one ``(slot, task, rows, worker)`` tuple per
    pending task, **in the order the tasks were submitted** — the runner
    aggregates (and serialises cache writes) in yield order, which keeps
    sweep results byte-identical across backends.  ``worker`` names where
    the task ran (``host/pid`` or a fabric worker name) and is display-only:
    it never reaches the cached rows or the aggregated result.

    Every backend accepts ``max_workers`` (ignored by backends without a
    worker pool), so :func:`make_backend` can instantiate any registered
    backend uniformly.
    """

    #: registry key used by :func:`make_backend` and the CLI ``--backend``
    name: ClassVar[str] = "?"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        #: when set (the runner wires it to its progress reporting), the
        #: backend announces each task as it *starts* executing — from a
        #: helper thread for the process-pool backends — together with the
        #: executing worker's identity when known
        self.start_callback: Optional[
            Callable[["SweepTask", Optional[str]], None]] = None

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        raise NotImplementedError

    def _start_reporter(self, pending: PendingTasks
                        ) -> Optional[_StartReporter]:
        """A reporter translating started slots into task callbacks."""
        if self.start_callback is None:
            return None
        tasks_by_slot = {slot: task for slot, task in pending}
        callback = self.start_callback
        return _StartReporter(
            lambda slot, worker: callback(tasks_by_slot[slot], worker))


class SerialBackend(ExecutionBackend):
    """Run every task inline in the current process (no pool).

    The reference backend: zero spawn overhead, deterministic, debuggable —
    and what ``max_workers <= 1`` has always meant.
    """

    name = "serial"

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        me = worker_identity()
        for slot, task in pending:
            if self.start_callback is not None:
                self.start_callback(task, me)
            yield slot, task, execute_point(task.experiment, task.params,
                                            task.seed), me


class BatchingProcessBackend(ExecutionBackend):
    """Ship contiguous chunks of tasks per pool submission.

    Sweeps with many cheap points (analytic experiments, short simulated
    durations, large grids) spend a noticeable share of their wall clock on
    per-task executor round trips: pickling, queue wakeups and result
    marshalling.  Chunking amortises that cost.

    By default the chunk size is **adaptive**: the backend starts with
    single-task probe batches, keeps an EWMA of the observed per-task cost
    (batch wall time divided by batch size, measured as batches complete)
    and sizes every subsequent chunk to take about
    ``target_batch_seconds`` — cheap tasks coalesce into large chunks,
    expensive tasks stay finely chunked for load balancing, and nobody has
    to guess an oversubscribe factor up front.  Passing an explicit
    ``batch_size`` restores fixed chunking.

    Results are yielded strictly in task submission order either way, so
    sweep output stays byte-identical to the serial backend.

    Parameters
    ----------
    max_workers:
        Worker processes (``None`` lets the executor pick).
    batch_size:
        Fixed tasks per chunk; ``None`` (default) sizes chunks adaptively.
    oversubscribe:
        Chunks kept in flight per worker (load-balancing slack; also the
        submission window of the adaptive mode).
    target_batch_seconds:
        Wall-clock cost the adaptive mode aims at per chunk.
    max_batch_size:
        Upper bound on an adaptively sized chunk (keeps progress reporting
        and load balancing alive even for microsecond tasks).
    """

    name = "batch"

    #: EWMA weight of the newest per-task cost observation
    COST_ALPHA = 0.4

    def __init__(self, max_workers: Optional[int] = None,
                 batch_size: Optional[int] = None, oversubscribe: int = 4,
                 target_batch_seconds: float = 0.5,
                 max_batch_size: int = 64):
        super().__init__(max_workers)
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if oversubscribe < 1:
            raise ValueError(
                f"oversubscribe must be >= 1, got {oversubscribe}")
        if target_batch_seconds <= 0:
            raise ValueError(
                f"target_batch_seconds must be positive, got "
                f"{target_batch_seconds}")
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        self.batch_size = batch_size
        self.oversubscribe = oversubscribe
        self.target_batch_seconds = target_batch_seconds
        self.max_batch_size = max_batch_size
        #: smoothed seconds per task, None until the first batch completes
        self._task_cost_ewma: Optional[float] = None

    # ---------------------------------------------------------- fixed mode
    def _chunk(self, pending: PendingTasks) -> List[PendingTasks]:
        size = self.batch_size
        if size is None:
            workers = self.max_workers or os.cpu_count() or 1
            size = max(1, math.ceil(len(pending)
                                    / (workers * self.oversubscribe)))
        return [pending[start:start + size]
                for start in range(0, len(pending), size)]

    @staticmethod
    def _submit(pool, batch: PendingTasks, queue):
        """Submit one chunk to the pool (``queue``: the start reporter's)."""
        return pool.submit(
            execute_chunk,
            [(task.experiment, task.params, task.seed) for _, task in batch],
            queue, [slot for slot, _ in batch] if queue else None)

    def _execute_fixed(self, pending: PendingTasks
                       ) -> Iterator[CompletedTask]:
        reporter = self._start_reporter(pending)
        queue = reporter.queue if reporter is not None else None
        with _optional(reporter), ProcessPoolExecutor(
                max_workers=self.max_workers) as pool:
            futures = [(batch, self._submit(pool, batch, queue))
                       for batch in self._chunk(pending)]
            for batch, future in futures:
                worker, results, _seconds = future.result()
                for (slot, task), rows in zip(batch, results):
                    yield slot, task, rows, worker

    # ------------------------------------------------------- adaptive mode
    def _observe_batch(self, batch_seconds: float, batch_size: int) -> None:
        """Fold one completed batch into the per-task cost EWMA."""
        per_task = batch_seconds / batch_size
        if self._task_cost_ewma is None:
            self._task_cost_ewma = per_task
        else:
            self._task_cost_ewma += self.COST_ALPHA * (
                per_task - self._task_cost_ewma)

    def _next_batch_size(self, remaining: int) -> int:
        """Chunk size for the next submission given the observed cost."""
        if self._task_cost_ewma is None:
            # probe batches stay small until a cost estimate exists
            return 1
        if self._task_cost_ewma <= 0:
            return min(remaining, self.max_batch_size)
        size = int(round(self.target_batch_seconds / self._task_cost_ewma))
        return max(1, min(size, self.max_batch_size, remaining))

    def _execute_adaptive(self, pending: PendingTasks
                          ) -> Iterator[CompletedTask]:
        workers = self.max_workers or os.cpu_count() or 1
        window = workers * self.oversubscribe
        next_index = 0
        inflight: List[Tuple[PendingTasks, object]] = []
        reporter = self._start_reporter(pending)
        queue = reporter.queue if reporter is not None else None
        with _optional(reporter), ProcessPoolExecutor(
                max_workers=workers) as pool:

            def submit_one() -> None:
                nonlocal next_index
                size = self._next_batch_size(len(pending) - next_index)
                batch = pending[next_index:next_index + size]
                next_index += size
                inflight.append((batch, self._submit(pool, batch, queue)))

            while next_index < len(pending) and len(inflight) < window:
                submit_one()
            while inflight:
                batch, future = inflight.pop(0)
                worker, results, worker_seconds = future.result()
                self._observe_batch(worker_seconds, len(batch))
                while next_index < len(pending) and len(inflight) < window:
                    submit_one()
                for (slot, task), rows in zip(batch, results):
                    yield slot, task, rows, worker

    def execute(self, pending: PendingTasks) -> Iterator[CompletedTask]:
        if not pending:
            return
        if self.batch_size is not None:
            yield from self._execute_fixed(pending)
        else:
            yield from self._execute_adaptive(pending)


class ProcessPoolBackend(BatchingProcessBackend):
    """One pool submission per sweep task — the right choice when
    individual points are expensive.  The batching backend with a fixed
    chunk size of 1."""

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__(max_workers, batch_size=1)


#: backend name -> class, for the CLI and :func:`make_backend`
BACKENDS: Dict[str, type] = {
    backend.name: backend
    for backend in (SerialBackend, ProcessPoolBackend, BatchingProcessBackend)
}


def make_backend(name: str,
                 max_workers: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by registry name (``serial``/``process``/...).

    The fabric's ``remote`` backend registers itself on import; asking for
    it by name imports :mod:`repro.fabric.backend` on demand, so the
    orchestrator stays importable without the fabric and vice versa.
    """
    if name not in BACKENDS and name == "remote":
        import repro.fabric.backend  # noqa: F401  (registers "remote")
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(set(BACKENDS) | {"remote"}))
        raise ValueError(
            f"unknown execution backend {name!r}; known: {known}") from None
    return backend_cls(max_workers=max_workers)


# ---------------------------------------------------------------- progress

#: progress event kinds: a task began executing / a task's rows are in
EVENT_START = "start"
EVENT_DONE = "done"


@dataclass(frozen=True)
class SweepProgress:
    """One progress event of a sweep, as seen by a progress callback.

    ``event`` is :data:`EVENT_DONE` when the task's rows arrived (the
    historical meaning) and :data:`EVENT_START` when a task began
    executing — the process-pool backends ship start events out of their
    workers over a lightweight queue, so long-running points tick when
    they *begin*, not only when they resolve.  Start events are reported
    from a helper thread; callbacks must be thread-safe (the standard
    :mod:`logging` handlers are).  Cache-served tasks resolve instantly
    and emit no start event.
    """

    experiment: str
    #: tasks finished so far, counting cache hits (for a start event: how
    #: many had finished when this task began)
    completed: int
    #: total tasks of the sweep
    total: int
    point_index: int
    replication: int
    params: Dict[str, object]
    #: wall-clock seconds since the sweep's execution started
    elapsed_seconds: float
    #: True when the task was served from the on-disk cache
    cached: bool = False
    #: :data:`EVENT_START` or :data:`EVENT_DONE`
    event: str = EVENT_DONE
    #: where the task ran — ``host/pid`` (serial and pool backends) or the
    #: fabric worker's name (remote backend); ``None`` for cache hits and
    #: backends that cannot attribute the task
    worker: Optional[str] = None


#: invoked once per progress event (task started / completed / cache-served)
ProgressCallback = Callable[[SweepProgress], None]

progress_logger = logging.getLogger("repro.experiments.progress")


def log_progress(progress: SweepProgress) -> None:
    """A ready-made progress callback that reports through :mod:`logging`.

    Attach it with ``SweepRunner(progress=log_progress)`` or the CLI's
    ``--progress`` flag; it logs to the ``repro.experiments.progress``
    logger at INFO level, one line per task start and one per completion.
    """
    where = f" on {progress.worker}" if progress.worker else ""
    if progress.event == EVENT_START:
        progress_logger.info(
            "%s: task started%s (point %d, replication %d; %d/%d done) "
            "after %.2fs",
            progress.experiment, where, progress.point_index,
            progress.replication, progress.completed, progress.total,
            progress.elapsed_seconds)
        return
    progress_logger.info(
        "%s: task %d/%d done (point %d, replication %d%s%s) after %.2fs",
        progress.experiment, progress.completed, progress.total,
        progress.point_index, progress.replication,
        ", cached" if progress.cached else "", where,
        progress.elapsed_seconds)


@dataclass
class SweepResult:
    """Aggregated outcome of one sweep run."""

    experiment: str
    master_seed: int
    replications: int
    confidence: float
    #: one entry per (point, row index): ``point`` holds the swept axis
    #: values, ``mean`` every metric's replication mean (non-numeric metrics
    #: pass through unchanged; nested dicts are flattened into
    #: ``outer_inner`` keys), ``ci95``-style bounds under ``ci``
    rows: List[Dict]
    tasks_total: int = 0
    tasks_run: int = 0
    cache_hits: int = 0
    #: name of the backend that executed the sweep (display only — the
    #: JSON rendering deliberately omits it so results stay byte-identical
    #: across backends)
    backend: str = SerialBackend.name
    #: True when the run was asked to resume an interrupted sweep
    resumed: bool = False
    #: address of the sweep's manifest in the result store (None when the
    #: store is disabled); the manifest records requested vs completed
    #: task digests, so an interrupted sweep's remainder is inspectable
    manifest_digest: Optional[str] = None

    def to_json(self) -> str:
        """Deterministic JSON rendering (byte-identical across runs)."""
        payload = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "replications": self.replications,
            "confidence": self.confidence,
            "rows": self.rows,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _is_metric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten_row(row: Mapping[str, object], separator: str = "_"
                ) -> Dict[str, object]:
    """Flatten nested dict fields into ``outer_inner``-style keys.

    ``{"fixed": {"gs_slots": 9}}`` becomes ``{"fixed_gs_slots": 9}``, to
    arbitrary depth; non-dict values (including lists) are left untouched.
    A flattened name colliding with an existing key raises ``ValueError``
    rather than silently dropping a metric.
    """
    flat: Dict[str, object] = {}

    def _walk(mapping: Mapping[str, object], prefix: str) -> None:
        for key, value in mapping.items():
            name = f"{prefix}{key}"
            if isinstance(value, Mapping):
                _walk(value, name + separator)
            elif name in flat:
                raise ValueError(
                    f"flattening produced a duplicate key {name!r}")
            else:
                flat[name] = value

    _walk(row, "")
    return flat


def aggregate_replications(replication_rows: Sequence[List[Dict]],
                           confidence: float = 0.95) -> List[Dict]:
    """Merge the row lists of a point's replications into mean/CI rows.

    Replications of the same point must produce the same row structure (the
    seed only perturbs metric values).  Nested dict fields are recursively
    flattened into ``outer_inner`` keys first (e.g. ``bandwidth_savings``'s
    ``fixed``/``variable`` sub-dicts become ``fixed_gs_slots`` etc.), so
    *every* numeric metric — however deeply a driver nested it — is reduced
    through :func:`repro.analysis.stats.aggregate_mean_ci` into ``mean`` /
    ``ci_low`` / ``ci_high``.  Boolean verdicts that disagree across
    replications become the fraction of replications that reported ``True``
    (so a single bound violation can never hide behind the first
    replication), and every other field is taken from the first replication.
    """
    lengths = {len(rows) for rows in replication_rows}
    if len(lengths) > 1:
        raise ValueError(
            f"replications disagree on row count: {sorted(lengths)}")
    flattened = [[flatten_row(row) for row in rows]
                 for rows in replication_rows]
    merged: List[Dict] = []
    for row_group in zip(*flattened):
        first = row_group[0]
        mean_row: Dict[str, object] = {}
        ci_row: Dict[str, List[float]] = {}
        for key, value in first.items():
            if _is_metric(value):
                samples = [float(rep_row[key]) for rep_row in row_group]
                agg = aggregate_mean_ci(samples, confidence)
                if isinstance(value, int) and all(
                        s == samples[0] for s in samples):
                    # counts that every replication agrees on stay integers
                    mean_row[key] = value
                else:
                    mean_row[key] = agg["mean"]
                ci_row[key] = [agg["ci_low"], agg["ci_high"]]
            elif isinstance(value, bool):
                verdicts = [bool(rep_row[key]) for rep_row in row_group]
                if all(v == verdicts[0] for v in verdicts):
                    mean_row[key] = value
                else:
                    mean_row[key] = sum(verdicts) / len(verdicts)
            else:
                mean_row[key] = value
        merged.append({"mean": mean_row, "ci": ci_row})
    return merged


class SweepRunner:
    """Fan a registered experiment's sweep out over an execution backend.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` lets the executor pick, ``0``/``1`` runs
        every task inline (serial backend).  Only consulted when ``backend``
        does not name/carry one explicitly.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    confidence:
        Confidence level of the aggregated intervals.
    backend:
        How tasks execute: an :class:`ExecutionBackend` instance, a backend
        name (``"serial"``, ``"process"``, ``"batch"`` — instantiated with
        ``max_workers``), or ``None`` to derive the historical behaviour
        from ``max_workers`` (inline for ``<= 1``, process pool otherwise).
    progress:
        Optional callback invoked with a :class:`SweepProgress` once per
        task *start* (``event="start"``, shipped out of worker processes
        by the pool backends and delivered from a helper thread — the
        callback must be thread-safe) and once per completion
        (``event="done"``, also covering cache hits).  Callbacks that only
        care about completions should return early unless
        ``progress.event == "done"``; see :func:`log_progress` for a
        ready-made logging handler.
    """

    def __init__(self, max_workers: Optional[int] = 1,
                 cache_dir: Optional[str] = None,
                 confidence: float = 0.95,
                 backend: Union[ExecutionBackend, str, None] = None,
                 progress: Optional[ProgressCallback] = None):
        self.max_workers = max_workers
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.confidence = confidence
        self.backend = self._resolve_backend(backend, max_workers)
        self.progress = progress

    @staticmethod
    def _resolve_backend(backend: Union[ExecutionBackend, str, None],
                         max_workers: Optional[int]) -> ExecutionBackend:
        if isinstance(backend, ExecutionBackend):
            return backend
        if isinstance(backend, str):
            return make_backend(backend, max_workers)
        if backend is not None:
            raise TypeError(
                f"backend must be an ExecutionBackend, a name or None, "
                f"got {backend!r}")
        if max_workers is not None and max_workers <= 1:
            return SerialBackend()
        return ProcessPoolBackend(max_workers)

    # ------------------------------------------------------------- planning

    def tasks_for(self, spec: ExperimentSpec,
                  overrides: Optional[Mapping[str, object]] = None,
                  replications: Optional[int] = None,
                  master_seed: int = 0) -> List[SweepTask]:
        """The full task list of one sweep, in deterministic order."""
        replications = self._replication_count(spec, replications)
        tasks = []
        for index, params in enumerate(spec.points(overrides)):
            for rep in range(replications):
                tasks.append(SweepTask(
                    experiment=spec.name, point_index=index, replication=rep,
                    params=params,
                    seed=point_seed(master_seed, spec.name, params, rep)))
        return tasks

    @staticmethod
    def _replication_count(spec: ExperimentSpec,
                           replications: Optional[int]) -> int:
        count = spec.replications if replications is None else replications
        if count < 1:
            raise ValueError(f"replications must be >= 1, got {count}")
        # an analytic experiment's rows ignore the seed: replicating it
        # would only repeat identical work
        return 1 if not spec.stochastic else count

    # ------------------------------------------------------------ execution

    #: completed-task flush cadence of the sweep manifest (a killed sweep
    #: loses at most this many completion marks — the store still has the
    #: rows, so resume only re-reads, never re-executes them)
    MANIFEST_FLUSH_EVERY = 16

    def run(self, experiment: str,
            overrides: Optional[Mapping[str, object]] = None,
            replications: Optional[int] = None,
            master_seed: int = 0,
            resume: bool = False) -> SweepResult:
        """Run one sweep and return its aggregated result.

        With ``resume=True`` (CLI: ``run --resume``) the runner requires
        the result store, loads the sweep's manifest if one exists, and —
        because every task is content-addressed — re-executes *only* the
        points whose rows are missing from the store; the refreshed
        manifest and the result's ``cache_hits``/``tasks_run`` counters
        record exactly what was reused vs re-run.
        """
        spec = get_experiment(experiment)
        if resume and self.cache is None:
            raise ValueError(
                "resume requires the on-disk result store (cache_dir)")
        replication_count = self._replication_count(spec, replications)
        tasks = self.tasks_for(spec, overrides, replication_count,
                               master_seed)
        started = time.monotonic()
        completed = 0

        def report(task: SweepTask, cached: bool,
                   worker: Optional[str] = None) -> None:
            nonlocal completed
            completed += 1
            if self.progress is not None:
                self.progress(SweepProgress(
                    experiment=spec.name, completed=completed,
                    total=len(tasks), point_index=task.point_index,
                    replication=task.replication, params=dict(task.params),
                    elapsed_seconds=time.monotonic() - started,
                    cached=cached, worker=worker))

        def report_start(task: SweepTask, worker: Optional[str]) -> None:
            # called by the backend — possibly from its reporter thread —
            # the moment a worker picks the task up
            self.progress(SweepProgress(
                experiment=spec.name, completed=completed,
                total=len(tasks), point_index=task.point_index,
                replication=task.replication, params=dict(task.params),
                elapsed_seconds=time.monotonic() - started,
                event=EVENT_START, worker=worker))

        self.backend.start_callback = \
            report_start if self.progress is not None else None

        # the cache key carries the spec's result-schema version so bumping
        # it after a run_point change invalidates stale entries
        cache_name = f"{spec.name}@v{spec.version}"
        manifest = self._open_manifest(cache_name, tasks, master_seed,
                                       replication_count, resume)
        done_digests = set(manifest.completed) if manifest else set()
        results: Dict[int, List[Dict]] = {}
        pending: List[Tuple[int, SweepTask]] = []
        cache_hits = 0
        for slot, task in enumerate(tasks):
            cached = self.cache.get(cache_name, task.params,
                                    task.seed) if self.cache else None
            if cached is not None:
                results[slot] = cached
                cache_hits += 1
                if manifest is not None:
                    done_digests.add(manifest.task_digests[slot])
                report(task, cached=True)
            else:
                pending.append((slot, task))
        if manifest is not None:
            manifest.completed = sorted(done_digests)
            self.cache.save_manifest(manifest)

        since_flush = 0
        for slot, task, rows, worker in self._execute(pending):
            if self.cache is not None:
                self.cache.put(cache_name, task.params, task.seed, rows)
            results[slot] = rows
            if manifest is not None:
                done_digests.add(manifest.task_digests[slot])
                since_flush += 1
                if since_flush >= self.MANIFEST_FLUSH_EVERY:
                    manifest.completed = sorted(done_digests)
                    self.cache.save_manifest(manifest)
                    since_flush = 0
            report(task, cached=False, worker=worker)

        if manifest is not None:
            manifest.completed = sorted(done_digests)
            manifest.status = "complete" if len(done_digests) == len(tasks) \
                else "running"
            self.cache.save_manifest(manifest)

        # aggregate per point, in point order
        aggregated: List[Dict] = []
        for index in range(0, len(tasks), replication_count):
            point_tasks = tasks[index:index + replication_count]
            replication_rows = [results[index + r]
                                for r in range(replication_count)]
            point = point_tasks[0].params
            for row in aggregate_replications(replication_rows,
                                              self.confidence):
                aggregated.append({"point": dict(point), **row})
        return SweepResult(
            experiment=experiment, master_seed=master_seed,
            replications=replication_count, confidence=self.confidence,
            rows=aggregated, tasks_total=len(tasks),
            tasks_run=len(pending), cache_hits=cache_hits,
            backend=self.backend.name, resumed=resume,
            manifest_digest=manifest.sweep_digest() if manifest else None)

    def _open_manifest(self, cache_name: str, tasks: Sequence[SweepTask],
                       master_seed: int, replication_count: int,
                       resume: bool) -> Optional[SweepManifest]:
        """The sweep's manifest (fresh or, when resuming, the saved one)."""
        if self.cache is None:
            return None
        digests = [entry_digest(cache_name, task.params, task.seed)
                   for task in tasks]
        manifest = SweepManifest(
            experiment=cache_name, master_seed=master_seed,
            replications=replication_count, task_digests=digests,
            backend=self.backend.name)
        if resume:
            existing = self.cache.load_manifest(manifest.sweep_digest())
            if existing is not None:
                # keep its completion marks; the store scan below re-proves
                # them (a mark without a store entry is simply re-executed)
                manifest = existing
                manifest.backend = self.backend.name
        manifest.status = "running"
        return manifest

    def _execute(self, pending: Sequence[Tuple[int, SweepTask]]
                 ) -> Iterator[CompletedTask]:
        """Yield ``(slot, task, rows, worker)`` per pending task, in order."""
        yield from self.backend.execute(pending)


def format_sweep(result: SweepResult, float_format: str = ".2f") -> str:
    """Render an aggregated sweep as a text table (mean +- CI half-width).

    Metric columns are the (flattened) keys of the aggregated ``mean`` rows,
    so nested driver metrics show up as ``fixed_gs_slots``-style columns.
    """
    from repro.analysis.reporting import format_table

    if not result.rows:
        return (f"{result.experiment}: no rows (every point rejected or "
                "empty sweep)")
    point_keys: List[str] = []
    metric_keys: List[str] = []
    for row in result.rows:
        for key in row["point"]:
            if key not in point_keys:
                point_keys.append(key)
        for key in row["mean"]:
            if key not in metric_keys and key not in point_keys:
                metric_keys.append(key)

    def cell(row: Dict, key: str) -> object:
        value = row["mean"].get(key, "-")
        ci = row["ci"].get(key)
        if ci is not None and result.replications > 1:
            half = (ci[1] - ci[0]) / 2.0
            return (f"{value:{float_format}} ± {half:{float_format}}"
                    if isinstance(value, float) else str(value))
        return value

    table_rows = [[row["point"].get(k, "-") for k in point_keys]
                  + [cell(row, k) for k in metric_keys]
                  for row in result.rows]
    header = (f"{result.experiment} — {len(result.rows)} rows, "
              f"{result.replications} replication(s), master seed "
              f"{result.master_seed} (tasks: {result.tasks_total}, "
              f"run: {result.tasks_run}, cache hits: {result.cache_hits}, "
              f"backend: {result.backend})")
    return header + "\n\n" + format_table(point_keys + metric_keys,
                                          table_rows,
                                          float_format=float_format)
