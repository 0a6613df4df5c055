"""Tracing for the benchmark's traced run, measured from outside the program.

Two mechanisms, both installed only in a traced trial process:

* :class:`Tracer` replaces a few public entry points with wrappers that
  record spans (name, start, end, parent span) and harvest counters from
  the objects the program built.  Spans stay in memory until the trial
  ends.
* :func:`layer_profile` turns a ``cProfile`` run into self seconds per
  layer (by module path under ``src/repro/<layer>/``) and exact call counts
  of the entry points each layer metric names.

Nothing here changes a result row: the wrappers call through unchanged and
only read counters afterwards.
"""

from __future__ import annotations

import functools
import os
import pstats
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

#: the program's layers, one package each under ``src/repro/``
LAYERS = ("sim", "piconet", "baseband", "core", "schedulers", "traffic",
          "scenario", "experiments", "fabric")

#: ``repro.analysis`` holds the replication statistics only the sweep
#: aggregation calls, so its time is orchestration time
_LAYER_ALIASES = {"analysis": "experiments"}

#: batch-kernel bailout reasons (``Piconet.fast_path_stats()["bailouts"]``)
BAILOUT_REASONS = ("sco", "bridge", "horizon", "adaptive_flip", "topology")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent]


class Tracer:
    """Spans and counters around the program's public entry points."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._new_piconets: list = []
        self.counts: Dict[str, int] = {
            "transactions": 0, "kernel_windows": 0, "kernel_transactions": 0,
            "interference_failures": 0, "retransmissions": 0,
            "store_gets": 0, "store_hits": 0, "store_puts": 0,
            "pool_submissions": 0,
            **{f"bailout_{reason}": 0 for reason in BAILOUT_REASONS}}

    # ------------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.monotonic(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.monotonic()
        self._open.remove(index)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    # ----------------------------------------------------------- patching
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _spanned(self, name: str, function: Callable,
                 after: Optional[Callable] = None) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result)
            return result
        return wrapper

    def install(self) -> "Tracer":
        from repro.experiments import orchestrator
        from repro.fabric.store import ResultStore
        from repro.piconet.piconet import Piconet
        from repro.scenario import compile as compile_module

        self._patch(orchestrator, "execute_point", self._spanned(
            "task", orchestrator.execute_point,
            after=lambda _rows: self._harvest_piconets()))
        self._patch(orchestrator, "aggregate_replications", self._spanned(
            "aggregate", orchestrator.aggregate_replications))
        self._patch(compile_module, "compile_scenario", self._spanned(
            "compile", compile_module.compile_scenario))
        for owner in (compile_module.CompiledScenario,
                      compile_module.CompiledPiconet):
            self._patch(owner, "run", self._spanned("simulate", owner.run))
        self._patch(ResultStore, "get", self._spanned(
            "store_get", ResultStore.get, after=self._count_get))
        self._patch(ResultStore, "put", self._spanned(
            "store_put", ResultStore.put,
            after=lambda _none: self._count("store_puts")))

        original_init = Piconet.__init__
        new_piconets = self._new_piconets

        @functools.wraps(original_init)
        def init(piconet, *args, **kwargs):
            original_init(piconet, *args, **kwargs)
            new_piconets.append(piconet)

        self._patch(Piconet, "__init__", init)

        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                tracer._count("pool_submissions")
                return super().submit(*args, **kwargs)

        self._patch(orchestrator, "ProcessPoolExecutor", CountingPool)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ----------------------------------------------------------- counters
    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def _count_get(self, rows) -> None:
        self._count("store_gets")
        if rows is not None:
            self._count("store_hits")

    def _harvest_piconets(self) -> None:
        """Fold the counters of the piconets one task built, then drop them."""
        for piconet in self._new_piconets:
            self._count("transactions",
                        piconet.transactions_gs + piconet.transactions_be)
            self._count("interference_failures",
                        piconet.channels.total("interference_failures"))
            self._count("retransmissions", sum(
                state.retransmissions for state in piconet.flow_states()))
            fast = piconet.fast_path_stats()
            if fast.get("enabled"):
                self._count("kernel_windows", fast["windows"])
                self._count("kernel_transactions", fast["transactions"])
                for reason in BAILOUT_REASONS:
                    self._count(f"bailout_{reason}",
                                fast["bailouts"].get(reason, 0))
        self._new_piconets.clear()


# ------------------------------------------------------------------ profile

def layer_of(filename: str) -> str:
    """The layer a profiled code location belongs to (``other`` if none)."""
    marker = os.sep + os.path.join("src", "repro") + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return "other"
    package = filename[index + len(marker):].split(os.sep, 1)[0]
    package = _LAYER_ALIASES.get(package, package)
    return package if package in LAYERS else "other"


#: exact-count metrics read from profiled call counts: metric -> (files
#: under src/repro, a trailing ``/`` meaning a whole package, function
#: names).  The paper's poller (PFP) is defined in ``core/pfp.py``, so
#: poller selections are counted there and in ``schedulers/``.  Collision
#: lookups are the occupancy-index queries of ``InterferenceField``: link
#: channels call ``mean_collision_ber`` once per packet, and
#: ``collisions`` answers single-slot queries.
CALL_COUNTS = {
    "sim.events": (("sim/engine.py",), ("step",)),
    "baseband.transmits": (("baseband/channel.py",), ("transmit",)),
    "baseband.collision_lookups": (("baseband/interference.py",),
                                   ("collisions", "mean_collision_ber")),
    "core.gs_polls": (("core/gs_manager.py",), ("record_poll",)),
    "schedulers.selects": (("schedulers/", "core/pfp.py"), ("select",)),
    "traffic.packets_offered": (("piconet/piconet.py",), ("offer_packet",)),
}


def layer_profile(profile) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds per layer incl. other, exact call counts)``.

    ``baseband.transmits`` counts ``ChannelMap.transmit`` only; the
    per-model ``transmit`` methods in the same file are told apart from it
    by line number.
    """
    stats = pstats.Stats(profile).stats
    self_seconds = {layer: 0.0 for layer in LAYERS + ("other",)}
    counts = {metric: 0 for metric in CALL_COUNTS}
    channel_map_line = _channel_map_transmit_line()
    for (filename, line, function), (_cc, calls, tottime, _ct, _callers) \
            in stats.items():
        self_seconds[layer_of(filename)] += tottime
        normalized = filename.replace(os.sep, "/")
        if "/src/repro/" not in normalized:
            continue
        relative = normalized.rsplit("/src/repro/", 1)[1]
        for metric, (files, names) in CALL_COUNTS.items():
            if function not in names:
                continue
            matched = any(relative.startswith(f) if f.endswith("/")
                          else relative == f for f in files)
            if metric == "baseband.transmits":
                matched = matched and line == channel_map_line
            if matched:
                counts[metric] += calls
    return self_seconds, counts


def _channel_map_transmit_line() -> int:
    from repro.baseband.channel import ChannelMap
    return ChannelMap.transmit.__code__.co_firstlineno
