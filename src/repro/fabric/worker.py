"""The fabric worker: execute sweep chunks shipped by a coordinator.

A worker is one process (usually ``python -m repro.fabric worker --connect
HOST:PORT``) that dials a coordinator, registers under a name, and then
serves ``chunk`` messages: each chunk is a list of serialised sweep tasks
(``[experiment, params, seed]`` triples) executed through the same
:func:`repro.experiments.orchestrator.execute_point` every local
backend uses — seeds are content-derived, so rows are byte-identical no
matter which worker (or host) runs the task.  Before executing each task of
a chunk the worker announces it (``task_start``), which doubles as liveness
evidence while long points run; a background thread heartbeats on idle
connections.

Importing :mod:`repro.experiments.orchestrator` executes the
``repro.experiments`` package ``__init__``, which imports every driver and
thereby registers all experiment specs — exactly how the process-pool
backends' spawned workers resolve experiment names.
"""

from __future__ import annotations

import logging
import threading
import traceback
from typing import Optional

from repro.experiments.orchestrator import execute_point, worker_identity
from repro.fabric import protocol
from repro.fabric.protocol import MessageSocket

logger = logging.getLogger("repro.fabric.worker")

#: default seconds between idle heartbeats
HEARTBEAT_INTERVAL = 1.0


class _Heartbeat:
    """Background heartbeats on an idle connection (daemon thread)."""

    def __init__(self, sock: MessageSocket, send_lock: threading.Lock,
                 interval: float):
        self._sock = sock
        self._lock = send_lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="fabric-heartbeat", daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._sock.send({"type": protocol.HEARTBEAT})
            except OSError:
                return  # connection gone; the main loop is exiting too

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2)


def run_worker(host: str, port: int, name: Optional[str] = None,
               heartbeat_interval: float = HEARTBEAT_INTERVAL,
               crash_after_chunks: Optional[int] = None) -> int:
    """Serve chunks from the coordinator at ``host:port`` until shutdown.

    Returns the number of chunks completed.  ``crash_after_chunks=N`` is a
    failure-injection hook for the fabric's own tests: the worker accepts
    its ``N``-th chunk, announces the first task, then drops the
    connection without completing it — indistinguishable, from the
    coordinator's side, from the process being killed mid-chunk.
    """
    name = name or worker_identity()
    sock = protocol.connect(host, port)
    send_lock = threading.Lock()
    completed = 0
    try:
        with send_lock:
            sock.send({"type": protocol.REGISTER, "name": name})
        greeting = sock.recv(timeout=10.0)
        if greeting is None or greeting.get("type") != protocol.REGISTERED:
            raise protocol.ProtocolError(
                f"coordinator rejected registration: {greeting!r}")
        name = str(greeting.get("name", name))
        logger.info("worker %s registered with %s:%d", name, host, port)
        with _Heartbeat(sock, send_lock, heartbeat_interval):
            while True:
                message = sock.recv()
                if message is None:
                    logger.info("worker %s: coordinator hung up", name)
                    return completed
                kind = message.get("type")
                if kind == protocol.SHUTDOWN:
                    with send_lock:
                        sock.send({"type": protocol.GOODBYE})
                    logger.info("worker %s: clean shutdown after %d chunks",
                                name, completed)
                    return completed
                if kind != protocol.CHUNK:
                    continue  # future message kinds are ignorable
                if (crash_after_chunks is not None
                        and completed + 1 >= crash_after_chunks):
                    _announce_task(sock, send_lock, message, 0)
                    sock.abort()  # simulated kill -9 mid-chunk
                    return completed
                _serve_chunk(sock, send_lock, message)
                completed += 1
    finally:
        sock.close()


def _announce_task(sock: MessageSocket, send_lock: threading.Lock,
                   chunk: dict, index: int) -> None:
    with send_lock:
        sock.send({"type": protocol.TASK_START,
                   "chunk_id": chunk["chunk_id"], "index": index})


def _serve_chunk(sock: MessageSocket, send_lock: threading.Lock,
                 chunk: dict) -> None:
    """Execute one chunk and reply with its rows (or the failure)."""
    chunk_id = chunk["chunk_id"]
    results = []
    try:
        for index, (experiment, params, seed) in enumerate(chunk["tasks"]):
            _announce_task(sock, send_lock, chunk, index)
            results.append(execute_point(experiment, dict(params), seed))
    except Exception:  # noqa: BLE001 — the coordinator decides what's fatal
        with send_lock:
            sock.send({"type": protocol.CHUNK_ERROR, "chunk_id": chunk_id,
                       "error": traceback.format_exc(limit=20)})
        return
    with send_lock:
        sock.send({"type": protocol.CHUNK_RESULT, "chunk_id": chunk_id,
                   "results": results})
