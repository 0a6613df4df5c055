"""Invariants checked on every compiled scenario the golden sweeps run.

* Per-flow byte conservation: every byte a flow was offered is delivered,
  still queued, or held by the reassembler as part of an incomplete
  packet — on every flow state (attached, parked or retired) of every
  piconet of every simulation experiment's golden configuration.
* Schedule volume: figure5's and crowded_room_coupled's golden
  configurations schedule a pinned number of heap entries for a pinned
  number of transactions (and, coupled, collision lookups), so a change
  that adds wake-ups or lookups per transaction fails here instead of
  only running slower.

The hook wraps ``CompiledScenario.run`` / ``CompiledPiconet.run`` and
inspects the runtime objects right after each run returns.
"""

import pytest

from repro.baseband.interference import InterferenceField
from repro.experiments.golden import GOLDEN_OVERRIDES, golden_result
from repro.scenario.compile import CompiledPiconet, CompiledScenario

#: experiments whose golden configuration simulates (the analytic ones
#: compile no scenario)
SIMULATION_EXPERIMENTS = sorted(
    name for name, overrides in GOLDEN_OVERRIDES.items()
    if "duration_seconds" in overrides)


def _hook_runs(monkeypatch, after):
    """Call ``after(compiled)`` once each compiled scenario (or piconet
    run on its own) has finished running."""
    for cls in (CompiledScenario, CompiledPiconet):
        def run_then_inspect(self, duration_seconds, _run=cls.run):
            _run(self, duration_seconds)
            after(self)
        monkeypatch.setattr(cls, "run", run_then_inspect)


def _piconets(compiled):
    if isinstance(compiled, CompiledPiconet):
        return [compiled.piconet]
    return [cp.piconet for cp in compiled.piconets.values()]


def _all_flow_states(piconet):
    yield from piconet._states.values()
    yield from piconet._parked_states.values()
    yield from piconet._retired_states.values()


@pytest.mark.parametrize("experiment", SIMULATION_EXPERIMENTS)
def test_every_flow_conserves_its_bytes(experiment, monkeypatch):
    checked = []
    violations = []

    def check(compiled):
        for piconet in _piconets(compiled):
            for state in _all_flow_states(piconet):
                partial = sum(packet.received_bytes for packet
                              in state.reassembler._partial.values())
                accounted = (state.delivered_bytes + state.queue.queued_bytes
                             + partial)
                checked.append(state.spec.flow_id)
                if state.queue.offered_bytes != accounted:
                    violations.append(
                        (piconet.config.name, state.spec.flow_id,
                         state.queue.offered_bytes, state.delivered_bytes,
                         state.queue.queued_bytes, partial))

    _hook_runs(monkeypatch, check)
    golden_result(experiment)
    assert checked, f"{experiment}: the hook inspected no flow state"
    assert not violations, (
        f"{experiment}: (piconet, flow, offered, delivered, queued, "
        f"partial) do not balance: {violations}")


#: figure5's golden configuration, per delay point: heap entries scheduled
#: (``env._eid``) and transactions run (GS + BE), measured before
#: ``Environment.sleep`` replaced the master loop's timeouts — a sleep
#: takes exactly the sequence number its timeout took
FIGURE5_SCHEDULE_VOLUME = [(1224, 356), (1176, 333)]


def test_figure5_schedule_volume_is_pinned(monkeypatch):
    volume = []

    def record(compiled):
        (piconet,) = _piconets(compiled)
        volume.append((piconet.env._eid,
                       piconet.transactions_gs + piconet.transactions_be))

    _hook_runs(monkeypatch, record)
    golden_result("figure5")
    assert volume == FIGURE5_SCHEDULE_VOLUME


#: crowded_room_coupled's golden configuration (2 and 4 coupled piconets,
#: 1 s each), per run: heap entries scheduled (``env._eid``, one shared
#: clock per room), transactions run over every piconet, and collision
#: lookups (``InterferenceField.collisions`` / ``mean_collision_ber``
#: calls) — pinned at the values before the packet-path rework
CROWDED_ROOM_COUPLED_VOLUME = [(2576, 971, 626), (4965, 1849, 1345)]


def test_crowded_room_coupled_schedule_volume_is_pinned(monkeypatch):
    volume = []
    lookups = [0]
    for name in ("collisions", "mean_collision_ber"):
        def counted(self, *args, _lookup=getattr(InterferenceField, name)):
            lookups[0] += 1
            return _lookup(self, *args)
        monkeypatch.setattr(InterferenceField, name, counted)

    def record(compiled):
        piconets = _piconets(compiled)
        volume.append((compiled.env._eid,
                       sum(p.transactions_gs + p.transactions_be
                           for p in piconets),
                       lookups[0]))
        lookups[0] = 0

    _hook_runs(monkeypatch, record)
    golden_result("crowded_room_coupled")
    assert volume == CROWDED_ROOM_COUPLED_VOLUME
