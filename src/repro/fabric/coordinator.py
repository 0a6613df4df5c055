"""The fabric coordinator: dispatch sweep chunks to registered workers.

The coordinator owns a listening socket; workers dial in, register and get
chunks.  It is deliberately a *single-threaded dispatch loop* fed by one
event queue — per-connection reader threads and the acceptor only ever
translate socket traffic into events — so every scheduling decision
(assignment, timeout, retry, steal) happens in one place and is easy to
reason about:

* **Liveness** — a worker is dead when its connection drops, when it
  misses heartbeats for ``heartbeat_timeout`` seconds, or when an assigned
  chunk blows its deadline (``per_task_timeout`` seconds per task).
  ``task_start`` announcements and results count as heartbeats, so a
  worker grinding through a long point is never declared dead.
* **Work stealing** — chunks assigned to a dead worker go back on the
  ready queue and are re-dispatched to live workers.  Tasks are
  deterministic (content-derived seeds), so a stolen chunk re-executes to
  byte-identical rows wherever it lands; if a presumed-dead worker's
  result straggles in after the steal, whichever copy arrives first wins
  and the other is discarded.
* **Bounded retry** — each failure (death or an in-task exception)
  increments the chunk's attempt count; re-dispatch waits out an
  exponential backoff (``backoff_base * 2**(attempts-1)``), and
  ``max_retries`` exceeded raises :class:`FabricError` with the last
  worker-side traceback.
* **Ordered delivery** — :meth:`Coordinator.run_chunks` yields completed
  chunks in submission order (buffering stragglers), which is what keeps
  remote sweep results byte-identical to the serial backend.
* **Clean drain** — :meth:`Coordinator.shutdown` sends every live worker
  ``shutdown``, waits under one shared deadline until each has said
  ``goodbye`` or hung up (in any order), and closes the listener; workers
  exit their serve loop with status 0.

Workers may join at any time, including mid-sweep — a fresh worker is
simply another assignment target on the next loop iteration.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fabric import protocol
from repro.fabric.protocol import MessageSocket

#: a serialised sweep task: ``(experiment, params, seed)``
TaskTriple = Tuple[str, Dict[str, object], int]

#: ``(global task index, worker name)`` — fired when a worker announces a
#: task of a dispatched chunk
StartCallback = Callable[[int, str], None]


class FabricError(RuntimeError):
    """The sweep cannot make progress (retries or workers exhausted)."""


@dataclass(eq=False)  # identity semantics: handles live in sets/dicts
class _Worker:
    name: str
    sock: MessageSocket
    last_seen: float
    alive: bool = True
    #: chunk ids currently assigned to this worker
    inflight: List[int] = field(default_factory=list)


@dataclass
class _Chunk:
    chunk_id: int
    start_index: int          #: global index of the chunk's first task
    tasks: List[TaskTriple]
    attempts: int = 0
    not_before: float = 0.0   #: monotonic instant the next attempt may start
    last_error: Optional[str] = None


class Coordinator:
    """Accept workers and run sweep chunks across them.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).
    heartbeat_timeout:
        Seconds of silence after which a registered worker is dead.
    per_task_timeout:
        Deadline contribution of each task in a chunk; a chunk of ``n``
        tasks must complete within ``n * per_task_timeout`` seconds of
        dispatch or its worker is declared dead and the chunk stolen.
    max_retries:
        Failed attempts allowed per chunk beyond the first.
    backoff_base:
        First retry delay; doubles per subsequent attempt.
    worker_wait_timeout:
        How long the dispatch loop tolerates having *zero* live workers
        (e.g. everything crashed and nothing re-joined) before giving up.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 heartbeat_timeout: float = 5.0,
                 per_task_timeout: float = 60.0,
                 max_retries: int = 3,
                 backoff_base: float = 0.05,
                 worker_wait_timeout: float = 30.0):
        self._host = host
        self._port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.per_task_timeout = per_task_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.worker_wait_timeout = worker_wait_timeout
        self._listener: Optional[socket.socket] = None
        self._accepting = False
        self._accept_thread: Optional[threading.Thread] = None
        self._events: "queue.Queue[Tuple[Optional[_Worker], Optional[dict]]]" \
            = queue.Queue()
        self._workers: List[_Worker] = []
        self._current_chunks: List[_Chunk] = []
        self._lock = threading.Lock()
        self._names = itertools.count(1)
        #: observability: dispatches, steals, retries, worker churn
        self.stats = {"chunks_dispatched": 0, "chunks_stolen": 0,
                      "chunks_retried": 0, "workers_joined": 0,
                      "workers_lost": 0}

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "Coordinator":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(32)
        # a finite accept timeout lets the accept thread notice shutdown
        # promptly (closing a socket does not reliably wake a blocked
        # ``accept()`` on every platform)
        listener.settimeout(0.25)
        self._listener = listener
        self._accepting = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True)
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        if self._listener is None:
            raise RuntimeError("coordinator not started")
        return self._listener.getsockname()[:2]

    def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Send every live worker ``shutdown`` and close the listener."""
        self._accepting = False
        with self._lock:
            workers = [w for w in self._workers if w.alive]
        waiting = set()
        for worker in workers:
            try:
                worker.sock.send({"type": protocol.SHUTDOWN})
            except OSError:
                continue
            waiting.add(worker)
        self._await_goodbyes(waiting, time.monotonic() + drain_timeout)
        for worker in workers:
            worker.alive = False
            worker.sock.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
            self._accept_thread = None

    def _await_goodbyes(self, waiting: set, deadline: float) -> None:
        """Drain the event queue until every worker in ``waiting`` said
        goodbye or hung up, or ``deadline`` (monotonic) passes.

        Goodbyes and EOFs are recorded per worker in whatever order they
        arrive; everything else (results of an already-finished run,
        heartbeats) is stale during the drain and dropped.
        """
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                peer, message = self._events.get(timeout=remaining)
            except queue.Empty:
                return
            if message is None or message.get("type") == protocol.GOODBYE:
                waiting.discard(peer)

    # ------------------------------------------------------------ accepting

    def _accept_loop(self) -> None:
        while self._accepting:
            try:
                raw, _ = self._listener.accept()
            except socket.timeout:
                continue  # periodic shutdown check
            except OSError:
                return  # listener closed by shutdown()
            threading.Thread(target=self._handshake, args=(raw,),
                             name="fabric-handshake", daemon=True).start()

    def _handshake(self, raw: socket.socket) -> None:
        raw.settimeout(None)  # accepted sockets must block, not inherit
        sock = MessageSocket(raw)
        try:
            hello = sock.recv(timeout=10.0)
        except (OSError, protocol.ProtocolError):
            sock.close()
            return
        if hello is None or hello.get("type") != protocol.REGISTER:
            sock.close()
            return
        base = str(hello.get("name") or "worker")
        with self._lock:
            taken = {w.name for w in self._workers}
            name = base
            while name in taken:
                name = f"{base}~{next(self._names)}"
            worker = _Worker(name=name, sock=sock,
                             last_seen=time.monotonic())
            self._workers.append(worker)
            self.stats["workers_joined"] += 1
        try:
            sock.send({"type": protocol.REGISTERED, "name": name})
        except OSError:
            worker.alive = False
            sock.close()
            return
        threading.Thread(target=self._reader_loop, args=(worker,),
                         name=f"fabric-read-{name}", daemon=True).start()
        self._events.put((worker, {"type": "_joined"}))

    def _reader_loop(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.sock.recv()
            except (OSError, protocol.ProtocolError):
                message = None
            self._events.put((worker, message))
            if message is None:
                return

    # ------------------------------------------------------------- workers

    def live_workers(self) -> List[str]:
        with self._lock:
            return [w.name for w in self._workers if w.alive]

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are registered (or raise)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.live_workers()) >= count:
                return
            time.sleep(0.02)
        raise FabricError(
            f"only {len(self.live_workers())} of {count} workers "
            f"registered within {timeout:.0f}s")

    # ------------------------------------------------------------ dispatch

    def run_chunks(self, tasks: Sequence[TaskTriple], chunk_size: int,
                   start_callback: Optional[StartCallback] = None
                   ) -> Iterator[Tuple[int, List[List[Dict]], str]]:
        """Execute ``tasks`` in chunks; yield chunks in submission order.

        Yields ``(start_index, per-task row lists, worker name)`` per
        chunk, holding back out-of-order completions so a consumer can
        stream results exactly as the serial backend would produce them.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        chunks = [
            _Chunk(chunk_id=index, start_index=start,
                   tasks=list(tasks[start:start + chunk_size]))
            for index, start in enumerate(
                range(0, len(tasks), chunk_size))]
        if not chunks:
            return
        #: the dispatch helpers below all key into the active chunk list
        self._current_chunks = chunks
        ready: List[int] = [chunk.chunk_id for chunk in chunks]
        assigned: Dict[int, Tuple[_Worker, float]] = {}
        completed: Dict[int, Tuple[List[List[Dict]], str]] = {}
        next_yield = 0
        workerless_since: Optional[float] = None

        while next_yield < len(chunks):
            now = time.monotonic()
            self._reap_silent_workers(now, ready, assigned)
            workerless_since = self._check_worker_supply(
                now, workerless_since)
            self._assign_ready(chunks, ready, assigned, now)
            self._pump_events(chunks, ready, assigned, completed,
                              start_callback)
            while next_yield < len(chunks) and next_yield in completed:
                results, worker_name = completed.pop(next_yield)
                chunk = chunks[next_yield]
                yield chunk.start_index, results, worker_name
                next_yield += 1

    # ---- dispatch-loop helpers (all run on the dispatching thread) ----

    def _check_worker_supply(self, now: float,
                             workerless_since: Optional[float]
                             ) -> Optional[float]:
        if self.live_workers():
            return None
        if workerless_since is None:
            return now
        if now - workerless_since > self.worker_wait_timeout:
            raise FabricError(
                f"no live workers for {self.worker_wait_timeout:.0f}s; "
                f"giving up")
        return workerless_since

    def _assign_ready(self, chunks: List[_Chunk], ready: List[int],
                      assigned: Dict[int, Tuple[_Worker, float]],
                      now: float) -> None:
        with self._lock:
            idle = [w for w in self._workers if w.alive and not w.inflight]
        for worker in idle:
            index = next((i for i, cid in enumerate(ready)
                          if chunks[cid].not_before <= now), None)
            if index is None:
                return
            chunk = chunks[ready.pop(index)]
            try:
                worker.sock.send({
                    "type": protocol.CHUNK, "chunk_id": chunk.chunk_id,
                    "tasks": [[e, p, s] for e, p, s in chunk.tasks]})
            except OSError:
                ready.insert(index, chunk.chunk_id)
                self._lose_worker(worker, ready, assigned)
                continue
            deadline = now + self.per_task_timeout * len(chunk.tasks)
            assigned[chunk.chunk_id] = (worker, deadline)
            worker.inflight.append(chunk.chunk_id)
            self.stats["chunks_dispatched"] += 1

    def _pump_events(self, chunks: List[_Chunk], ready: List[int],
                     assigned: Dict[int, Tuple[_Worker, float]],
                     completed: Dict[int, Tuple[List[List[Dict]], str]],
                     start_callback: Optional[StartCallback]) -> None:
        try:
            worker, message = self._events.get(timeout=0.05)
        except queue.Empty:
            return
        while True:
            self._handle_event(worker, message, chunks, ready, assigned,
                               completed, start_callback)
            try:
                worker, message = self._events.get_nowait()
            except queue.Empty:
                return

    def _handle_event(self, worker: Optional[_Worker],
                      message: Optional[dict], chunks: List[_Chunk],
                      ready: List[int],
                      assigned: Dict[int, Tuple[_Worker, float]],
                      completed: Dict[int, Tuple[List[List[Dict]], str]],
                      start_callback: Optional[StartCallback]) -> None:
        if worker is None:
            return
        if message is None:  # connection dropped
            self._lose_worker(worker, ready, assigned)
            return
        worker.last_seen = time.monotonic()
        kind = message.get("type")
        if kind == protocol.TASK_START and start_callback is not None:
            chunk_id = message.get("chunk_id")
            if isinstance(chunk_id, int) and 0 <= chunk_id < len(chunks):
                index = chunks[chunk_id].start_index \
                    + int(message.get("index", 0))
                start_callback(index, worker.name)
        elif kind == protocol.CHUNK_RESULT:
            chunk_id = message["chunk_id"]
            if chunk_id not in completed:
                completed[chunk_id] = (message["results"], worker.name)
            assigned.pop(chunk_id, None)
            if chunk_id in worker.inflight:
                worker.inflight.remove(chunk_id)
        elif kind == protocol.CHUNK_ERROR:
            chunk_id = message["chunk_id"]
            assigned.pop(chunk_id, None)
            if chunk_id in worker.inflight:
                worker.inflight.remove(chunk_id)
            if chunk_id not in completed:
                chunk = chunks[chunk_id]
                chunk.last_error = str(message.get("error", "unknown"))
                self.stats["chunks_retried"] += 1
                self._requeue(chunk, ready)
        # heartbeats and goodbyes only refresh last_seen

    def _reap_silent_workers(self, now: float, ready: List[int],
                             assigned: Dict[int, Tuple[_Worker, float]]
                             ) -> None:
        """Declare heartbeat-silent or deadline-blown workers dead."""
        overdue = {worker for worker, deadline in assigned.values()
                   if now > deadline}
        with self._lock:
            silent = [w for w in self._workers if w.alive
                      and (w in overdue
                           or now - w.last_seen > self.heartbeat_timeout)]
        for worker in silent:
            self._lose_worker(worker, ready, assigned)

    def _lose_worker(self, worker: _Worker, ready: List[int],
                     assigned: Dict[int, Tuple[_Worker, float]]) -> None:
        if not worker.alive:
            return
        worker.alive = False
        worker.sock.abort()
        self.stats["workers_lost"] += 1
        for chunk_id in list(worker.inflight):
            worker.inflight.remove(chunk_id)
            entry = assigned.pop(chunk_id, None)
            if entry is None:
                continue
            self.stats["chunks_stolen"] += 1
            self._requeue(self._current_chunks[chunk_id], ready)

    def _requeue(self, chunk: _Chunk, ready: List[int]) -> None:
        chunk.attempts += 1
        if chunk.attempts > self.max_retries:
            detail = f":\n{chunk.last_error}" if chunk.last_error else ""
            raise FabricError(
                f"chunk {chunk.chunk_id} (tasks "
                f"{chunk.start_index}..{chunk.start_index + len(chunk.tasks) - 1}) "
                f"failed {chunk.attempts} times{detail}")
        chunk.not_before = time.monotonic() \
            + self.backoff_base * (2 ** (chunk.attempts - 1))
        ready.append(chunk.chunk_id)
