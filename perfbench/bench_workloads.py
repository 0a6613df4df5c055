"""The benchmark's workloads: which sweeps run, on which backend, how big.

Every workload is a closed loop: ``SweepRunner.run`` over registered
experiments, where each worker takes its next task only after the previous
one completed, so the offered concurrency equals the worker count.  The
workload seed is passed as the sweeps' ``master_seed``; the program only
ever sees the task list the runner plans from it.

``scale="tiny"`` shrinks every sweep to a handful of short tasks for the
benchmark's own smoke tests; it exercises the same code path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: simulated slots per simulated second (one slot is 625 us)
SLOTS_PER_SECOND = 1600


@dataclass(frozen=True)
class Sweep:
    """One ``SweepRunner.run`` call of a workload."""

    experiment: str
    overrides: Dict[str, object] = field(default_factory=dict)
    replications: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {"experiment": self.experiment, "overrides": self.overrides,
                "replications": self.replications}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: Tuple[Sweep, ...]
    backend: str
    workers: int
    #: check the paper's GS delay bound on every row (ideal-channel
    #: figure-4 sweeps only: lossy or interfered sweeps may legitimately
    #: report violations)
    gs_bound_check: bool = False
    scale: str = "full"

    @property
    def experiments(self) -> List[str]:
        return sorted({sweep.experiment for sweep in self.sweeps})

    @property
    def pooled(self) -> bool:
        return self.backend != "serial"


# admission_vs_ber: 16 points x 16 seed replications of a 0.5 s run -> 256
# short tasks, so per-task dispatch, compile and store I/O become a visible
# share of the wall.  At 64 tasks (a sweep of under a second) the batch
# backend's wall spread by 0.08-0.16 of its median over runs; 256 tasks
# make each trial's sweep long enough to be steady.
_FANOUT = (Sweep("admission_vs_ber", {"duration_seconds": 0.5}, 16),)
_FANOUT_TINY = (Sweep("admission_vs_ber",
                      {"duration_seconds": 0.1, "bit_error_rate": [0.0, 1e-3],
                       "interferer_duty": [0.0]}, 2),)

_FULL: Dict[str, Workload] = {
    "paper_piconet": Workload(
        "paper_piconet",
        "the paper's Fig. 4 piconet (PFP, GS+BE, ideal channel): default "
        "figure5 and delay_compliance sweeps; the simulator core does all "
        "the work",
        (Sweep("figure5"), Sweep("delay_compliance")),
        backend="serial", workers=1, gs_bound_check=True),
    "coupled_room": Workload(
        "coupled_room",
        "default crowded_room_coupled and dm_vs_dh sweeps: baseband does "
        "the most work; no GS flows, so core changes must not move it",
        (Sweep("crowded_room_coupled"), Sweep("dm_vs_dh")),
        backend="serial", workers=1),
    "fanout_batch": Workload(
        "fanout_batch",
        "256 short admission_vs_ber tasks on the batch backend, 2 workers, "
        "cold then warm store pass: dispatch, compile and store I/O show",
        _FANOUT, backend="batch", workers=2),
    "fanout_remote": Workload(
        "fanout_remote",
        "the same 256 tasks on the remote backend with 2 spawned loopback "
        "workers: protocol, coordinator, registration and drain show",
        _FANOUT, backend="remote", workers=2),
}

_TINY_SWEEPS: Dict[str, Tuple[Sweep, ...]] = {
    "paper_piconet": (
        Sweep("figure5", {"delay_requirement": [0.0327, 0.0459],
                          "duration_seconds": 0.2}),
        Sweep("delay_compliance", {"delay_requirement": [0.0459],
                                   "duration_seconds": 0.2})),
    "coupled_room": (
        Sweep("crowded_room_coupled", {"piconets": [2],
                                       "duration_seconds": 0.2}),
        Sweep("dm_vs_dh", {"bit_error_rate": [3e-4],
                           "duration_seconds": 0.2})),
    "fanout_batch": _FANOUT_TINY,
    "fanout_remote": _FANOUT_TINY,
}

WORKLOAD_NAMES = tuple(_FULL)
#: workloads ``BENCHMARK.json`` leaves out.  In a fresh interpreter the
#: remote fabric's shutdown drain waits out its whole 5 s timeout for the
#: second worker's goodbye in some sweeps (3 of 20 in one series, most
#: trials of a run at other times), so no median of the sweep wall over a
#: run is steady; ``report.py`` and the smoke tests still run it.
UNGATED = ("fanout_remote",)
SCALES = ("full", "tiny")


def get_workload(name: str, scale: str = "full") -> Workload:
    """The workload ``name`` at ``scale`` (``KeyError`` if unknown)."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {SCALES}")
    workload = _FULL[name]
    if scale == "tiny":
        workload = dataclasses.replace(workload, sweeps=_TINY_SWEEPS[name],
                                       scale=scale)
    return workload
