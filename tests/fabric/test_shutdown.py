"""Regression test: the coordinator's drain takes goodbyes in any order.

Two scripted workers register in order; on ``shutdown`` the first one
answers late and the second at once.  The drain must record the early
goodbye (and the EOF after it) instead of discarding it while it waits
on the first worker, so ``shutdown`` returns as soon as both are done,
not after the whole ``drain_timeout``.
"""

import threading
import time

from repro.fabric import protocol
from repro.fabric.coordinator import Coordinator

DRAIN_TIMEOUT_S = 5.0


def scripted_worker(coordinator, name, goodbye_delay):
    """Register, wait for ``shutdown``, say goodbye after a delay, hang up."""
    sock = protocol.connect(*coordinator.address)
    sock.send({"type": protocol.REGISTER, "name": name})
    assert sock.recv(timeout=5.0)["type"] == protocol.REGISTERED

    def serve():
        try:
            while True:
                message = sock.recv()
                if message is None:
                    return
                if message.get("type") == protocol.SHUTDOWN:
                    time.sleep(goodbye_delay)
                    sock.send({"type": protocol.GOODBYE})
                    return
        finally:
            sock.close()

    thread = threading.Thread(target=serve, name=f"scripted-{name}",
                              daemon=True)
    thread.start()
    return thread


def test_shutdown_collects_out_of_order_goodbyes_promptly():
    coordinator = Coordinator().start()
    workers = []
    for count, (name, delay) in enumerate((("late", 0.3), ("early", 0.0)),
                                          start=1):
        workers.append(scripted_worker(coordinator, name, delay))
        # register one at a time, so the late worker is drained first
        coordinator.wait_for_workers(count, timeout=5.0)
    assert coordinator.live_workers() == ["late", "early"]

    started = time.monotonic()
    coordinator.shutdown(drain_timeout=DRAIN_TIMEOUT_S)
    elapsed = time.monotonic() - started

    assert elapsed < 1.0, f"shutdown stalled for {elapsed:.2f}s"
    for thread in workers:
        thread.join(timeout=2.0)
        assert not thread.is_alive()
