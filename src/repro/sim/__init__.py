"""Discrete-event simulation kernel.

This package is the simulation substrate of the reproduction.  The paper
evaluated its polling mechanisms on ns-2 with Bluetooth extensions; here a
small, dependency-free discrete-event engine plays that role.

The design follows the familiar process-interaction style (generator
coroutines yielding events), so simulation code reads like the pseudo-code
in the paper:

    def source(env, queue):
        while True:
            yield env.sleep(20_000)            # 20 ms in microseconds
            queue.put(Packet(...))

Public API
----------
Environment
    The event loop and simulation clock.
Event, Timeout, Process, Interrupt, AnyOf, AllOf
    Event primitives.
Resource, Store
    Shared-resource primitives (used for queues and the radio medium).
Monitor, TimeSeriesMonitor, Counter
    Measurement helpers.
RandomStreams
    Named, independently seeded random-number streams.
"""

from repro.sim.coordination import SharedClock
from repro.sim.engine import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.monitor import Counter, Monitor, TimeSeriesMonitor
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Interrupt",
    "Monitor",
    "Process",
    "RandomStreams",
    "derive_seed",
    "Resource",
    "SharedClock",
    "StopSimulation",
    "Store",
    "TimeSeriesMonitor",
    "Timeout",
]
