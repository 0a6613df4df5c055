"""Property test: every piconet's slot ledger accounts for elapsed time.

The master loop books a transaction's slots (GS, BE or SCO) when it ends
and an idle step's when it starts, and no step straddles the end of a run
of whole slot pairs.  So when a run stops, the accounted slots trail the
elapsed slots by at most the transaction still in flight: 0 slots between
steps, at most 10 during a DH5 downlink answered by a DH5 uplink.  This
test draws randomized scenarios (single piconets, interference fields,
scatternet bridges; SCO links, adaptive segmentation, every poller kind,
ideal/iid/Gilbert-Elliott channels), runs each, and checks that bound
for every piconet.
"""

from hypothesis import HealthCheck, given, reject, settings
from test_scenario_properties import scenario_specs

from repro.baseband.constants import SLOT_US
from repro.scenario import compile_scenario

DURATION_S = 0.4
SEED = 7
#: slots of the longest transaction: a DH5 downlink plus a DH5 uplink
MAX_IN_FLIGHT_SLOTS = 10


@given(scenario_specs())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_slot_ledger_trails_elapsed_slots_by_one_transaction(spec):
    try:
        compiled = compile_scenario(spec, seed=SEED)
        compiled.run(DURATION_S)
    except ValueError:
        # extreme Gilbert-Elliott parameters, unsatisfiable SCO
        # reservations and the like are rejected by design
        reject()
    for name, piconet in compiled.piconets.items():
        pic = piconet.piconet
        gap = pic.env.now // SLOT_US - pic.slot_accounting()["accounted"]
        assert 0 <= gap <= MAX_IN_FLIGHT_SLOTS, (name, gap)
