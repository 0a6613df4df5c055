"""Single-path tests of the master loop's slot ledger.

The per-slot event loop is the piconet's only executor.  These tests pin
its ledger on three small scenarios: a backlogged downlink, a piconet
whose poller never plans (pure idling) and a flow attached mid-run.  The
pinned numbers are those the golden fixtures were generated with.
"""

from dataclasses import replace

from repro.baseband.constants import SLOT_US
from repro.piconet.flows import BE, DOWNLINK
from repro.piconet.flows import FlowSpec as RuntimeFlowSpec
from repro.piconet.piconet import Piconet
from repro.scenario import compile_scenario
from repro.scenario.specs import (
    FlowSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
)

STEADY_TYPES = ("DH1", "DH3", "DH5")


def _steady_spec():
    """One slave, one sourceless BE downlink, round-robin poller."""
    piconet = PiconetSpec(
        name="steady", slaves=("S1",),
        flows=(FlowSpec(1, slave=1, direction=DOWNLINK, traffic_class=BE,
                        allowed_types=STEADY_TYPES),),
        allowed_types=STEADY_TYPES,
        poller=PollerSpec(kind="round_robin"))
    return ScenarioSpec(piconets=(piconet,))


def test_backlogged_run_accounting():
    compiled = compile_scenario(_steady_spec(), seed=3)
    piconet = compiled.primary.piconet
    for _ in range(40):
        piconet.offer_packet(1, 16000)
    compiled.run(2.0)
    # 3200 slots elapsed; the last DH5/NULL round (6 slots) is in flight
    assert piconet.slot_accounting() == {
        "gs": 0, "be": 3194, "sco": 0, "idle": 0, "accounted": 3194,
        "gs_polls_without_data": 0, "be_polls_without_data": 0}
    stats = piconet.flow_stats(1)
    assert stats["offered_packets"] == 40
    assert stats["delivered_packets"] == 11
    assert stats["delivered_bytes"] == 11 * 16000


def test_pollerless_piconet_idles():
    spec = replace(
        _steady_spec().piconets[0],
        poller=PollerSpec(kind="round_robin", only_slaves=()))
    compiled = compile_scenario(ScenarioSpec(piconets=(spec,)), seed=1)
    compiled.run(0.5)
    accounting = compiled.primary.piconet.slot_accounting()
    assert accounting["idle"] == accounting["accounted"] == 800
    assert accounting["gs"] == accounting["be"] == 0


def test_runtime_flow_add_is_one_topology_change():
    compiled = compile_scenario(_steady_spec(), seed=1)
    compiled.run(0.2)
    piconet = compiled.primary.piconet
    piconet.add_flow_runtime(RuntimeFlowSpec(
        2, slave=1, direction=DOWNLINK, traffic_class=BE,
        allowed_types=STEADY_TYPES))
    compiled.run(0.2)
    assert piconet.topology_changes == 1
    accounting = piconet.slot_accounting()
    assert accounting["topology_changes"] == 1
    assert piconet.env.now == 400_000
    assert 0 <= piconet.env.now // SLOT_US - accounting["accounted"] <= 10


def test_fast_path_stats_is_a_disabled_stub():
    # kept for the traced benchmark, which reads it; there is no kernel
    assert Piconet().fast_path_stats() == {"enabled": False}
