"""Per-task *start* progress reporting, including from worker processes."""

import logging
import threading

import pytest

from repro.experiments.orchestrator import (
    BatchingProcessBackend,
    EVENT_DONE,
    EVENT_START,
    ProcessPoolBackend,
    SerialBackend,
    SweepProgress,
    SweepRunner,
    log_progress,
    progress_logger,
)
from repro.experiments.registry import ExperimentSpec, register, unregister


def cheap_run_point(params, seed):
    return [{"x": params["x"], "value": params["x"] * 2.0}]


@pytest.fixture
def cheap_experiment():
    spec = register(ExperimentSpec(
        name="cheap-progress", description="synthetic progress probe",
        run_point=cheap_run_point, grid={"x": [1, 2, 3]}))
    yield spec
    unregister("cheap-progress")


class EventCollector:
    """Thread-safe progress sink (start events arrive from a thread)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def __call__(self, progress: SweepProgress) -> None:
        with self._lock:
            self.events.append(progress)

    def keys(self, event):
        return sorted((p.point_index, p.replication)
                      for p in self.events if p.event == event)


def run_with(backend, experiment="admission_capacity"):
    collector = EventCollector()
    runner = SweepRunner(backend=backend, progress=collector)
    result = runner.run(experiment)
    return collector, result


def test_serial_backend_reports_start_before_done(cheap_experiment):
    collector, result = run_with(SerialBackend(), "cheap-progress")
    per_task = {}
    for progress in collector.events:
        key = (progress.point_index, progress.replication)
        per_task.setdefault(key, []).append(progress.event)
    assert per_task == {(i, 0): [EVENT_START, EVENT_DONE]
                        for i in range(3)}
    assert result.tasks_run == 3


def test_process_backend_reports_worker_side_starts():
    collector, result = run_with(ProcessPoolBackend(max_workers=2))
    total = result.tasks_total
    assert total > 1
    assert collector.keys(EVENT_START) == collector.keys(EVENT_DONE)
    assert len(collector.keys(EVENT_START)) == total


def test_batch_backend_reports_per_task_starts_within_chunks():
    backend = BatchingProcessBackend(max_workers=2, batch_size=2)
    collector, result = run_with(backend)
    # every task of every chunk announces its own start
    assert collector.keys(EVENT_START) == collector.keys(EVENT_DONE)
    assert len(collector.keys(EVENT_START)) == result.tasks_total


def test_adaptive_batch_backend_reports_starts():
    backend = BatchingProcessBackend(max_workers=2)
    collector, result = run_with(backend)
    assert collector.keys(EVENT_START) == collector.keys(EVENT_DONE)
    assert len(collector.keys(EVENT_START)) == result.tasks_total


@pytest.fixture
def wide_experiment():
    spec = register(ExperimentSpec(
        name="wide-progress", description="48 cheap points",
        run_point=cheap_run_point, grid={"x": list(range(48))}))
    yield spec
    unregister("wide-progress")


# 4 workers on a 2-CPU host: more concurrent writers than cores
@pytest.mark.parametrize("workers, batch_size",
                         [(2, None), (2, 2), (4, None), (4, 3)])
def test_pool_starts_arrive_once_before_done_without_a_manager(
        workers, batch_size, wide_experiment, monkeypatch):
    import multiprocessing.managers

    def no_manager(*_args, **_kwargs):
        raise AssertionError("a multiprocessing Manager was started")

    monkeypatch.setattr(multiprocessing.managers.BaseManager, "start",
                        no_manager)
    backend = BatchingProcessBackend(max_workers=workers,
                                     batch_size=batch_size)
    collector, result = run_with(backend, "wide-progress")
    per_task = {}
    for progress in collector.events:
        key = (progress.point_index, progress.replication)
        per_task.setdefault(key, []).append(progress.event)
    assert result.tasks_run == 48
    assert per_task == {(i, 0): [EVENT_START, EVENT_DONE]
                        for i in range(48)}


def test_start_events_do_not_change_results(cheap_experiment):
    silent = SweepRunner(backend=SerialBackend()).run("cheap-progress")
    collector, observed = run_with(SerialBackend(), "cheap-progress")
    assert observed.to_json() == silent.to_json()


def test_no_start_machinery_without_progress_callback(cheap_experiment):
    backend = SerialBackend()
    SweepRunner(backend=backend).run("cheap-progress")
    assert backend.start_callback is None


def test_log_progress_renders_start_and_done_lines(caplog):
    start = SweepProgress(
        experiment="toy", completed=0, total=4, point_index=1,
        replication=0, params={}, elapsed_seconds=0.5, event=EVENT_START)
    done = SweepProgress(
        experiment="toy", completed=1, total=4, point_index=1,
        replication=0, params={}, elapsed_seconds=1.5, cached=True)
    with caplog.at_level(logging.INFO, logger=progress_logger.name):
        log_progress(start)
        log_progress(done)
    assert "task started (point 1, replication 0; 0/4 done)" \
        in caplog.messages[0]
    assert "task 1/4 done" in caplog.messages[1]
    assert "cached" in caplog.messages[1]
