"""Distributed sweep fabric: remote workers, a shared result store, and
automated sweep analysis.

The fabric is the "one laptop -> fleet" layer over the sweep orchestrator
(:mod:`repro.experiments.orchestrator`).  Sweep tasks were already
serialisable ``(experiment, params, seed)`` triples with content-derived
seeds, so shipping them to other processes — or other hosts — is purely a
transport problem.  The subsystem has four parts:

:mod:`repro.fabric.protocol`
    A length-prefixed JSON message framing over plain sockets
    (:class:`~repro.fabric.protocol.MessageSocket`), shared by workers and
    the coordinator.

:mod:`repro.fabric.worker` / :mod:`repro.fabric.coordinator`
    A worker process (``python -m repro.fabric worker --connect HOST:PORT``)
    registers with a coordinator, executes chunks of sweep tasks and
    heartbeats; the coordinator dispatches chunks, detects dead or silent
    workers (missed heartbeats, per-task timeouts) and re-dispatches their
    chunks to live workers (work stealing) with bounded exponential-backoff
    retry.

:mod:`repro.fabric.backend`
    :class:`~repro.fabric.backend.RemoteBackend` — an
    :class:`~repro.experiments.orchestrator.ExecutionBackend` that slots
    into ``BACKENDS`` as ``"remote"``, spawning local worker subprocesses
    by default (external workers can join the same port).  Rows are
    byte-identical to the ``serial`` backend because seeds are
    content-derived and results are aggregated in submission order.

:mod:`repro.fabric.store` / :mod:`repro.fabric.analysis`
    A content-addressed on-disk result store keyed by the existing
    ``(experiment@version, canonical_params, seed)`` scheme (atomic writes,
    corruption quarantine, ``gc``/``stats``), sweep manifests that make
    interrupted sweeps resumable (``run --resume``), and a rule registry
    that scans completed sweep rows for GS-bound violations, compliance
    cliffs, starved flows, zero-goodput rows and CI blowups
    (``analyze <experiment>``).

This package deliberately avoids importing the orchestrator at import time
(``store``/``protocol``/``analysis`` are dependency-free); the backend,
worker and coordinator modules import it lazily so
``repro.experiments.orchestrator`` can itself build on
:mod:`repro.fabric.store` without a cycle.
"""

from repro.fabric.store import (  # noqa: F401
    ResultStore,
    StoreStats,
    SweepManifest,
    canonical_params,
)

__all__ = [
    "ResultStore",
    "StoreStats",
    "SweepManifest",
    "canonical_params",
]
