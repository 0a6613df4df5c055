"""Tests of segmentation policies and reassembly."""

import pytest

from repro.baseband import (
    BestFitSegmentationPolicy,
    LargestPacketSegmentationPolicy,
    Reassembler,
)
from repro.baseband.segmentation import SegmentationError


@pytest.fixture
def paper_policy():
    """The Section-4 policy: DH1 and DH3 allowed, best-fit on the remainder."""
    return BestFitSegmentationPolicy(["DH1", "DH3"])


def test_paper_packet_sizes_use_single_dh3(paper_policy):
    # every GS packet of 144..176 bytes fits in one DH3
    for size in (144, 160, 176):
        pieces = paper_policy.segment_sizes(size)
        assert len(pieces) == 1
        assert pieces[0][0].name == "DH3"
        assert pieces[0][1] == size


def test_small_remainder_goes_to_dh1(paper_policy):
    # 27 bytes fit in a DH1; the policy prefers the smaller packet
    pieces = paper_policy.segment_sizes(27)
    assert [(p.name, n) for p, n in pieces] == [("DH1", 27)]


def test_multi_segment_packet_splits_greedily(paper_policy):
    pieces = paper_policy.segment_sizes(183 + 20)
    assert [(p.name, n) for p, n in pieces] == [("DH3", 183), ("DH1", 20)]


def test_remainder_larger_than_dh1_uses_dh3(paper_policy):
    pieces = paper_policy.segment_sizes(183 + 100)
    assert [(p.name, n) for p, n in pieces] == [("DH3", 183), ("DH3", 100)]


def test_largest_policy_always_uses_dh3():
    policy = LargestPacketSegmentationPolicy(["DH1", "DH3"])
    pieces = policy.segment_sizes(20)
    assert pieces[0][0].name == "DH3"


def test_segment_sizes_conserve_bytes(paper_policy):
    for size in (1, 27, 28, 144, 183, 184, 400, 1500):
        pieces = paper_policy.segment_sizes(size)
        assert sum(n for _, n in pieces) == size


def test_zero_size_rejected(paper_policy):
    with pytest.raises(SegmentationError):
        paper_policy.segment_sizes(0)


def test_policy_needs_data_carrying_type():
    with pytest.raises(ValueError):
        BestFitSegmentationPolicy(["POLL"])


def test_segment_builds_packets_with_metadata(paper_policy):
    packets = paper_policy.segment(300, flow_id=7, hl_packet_id=99,
                                   arrival_time=123.0)
    assert len(packets) == 2
    assert packets[0].segment_index == 0 and not packets[0].is_last_segment
    assert packets[1].segment_index == 1 and packets[1].is_last_segment
    assert all(p.flow_id == 7 for p in packets)
    assert all(p.hl_packet_id == 99 for p in packets)
    assert all(p.hl_packet_size == 300 for p in packets)
    assert all(p.hl_arrival_time == 123.0 for p in packets)


def test_reassembler_round_trip(paper_policy):
    reassembler = Reassembler()
    packets = paper_policy.segment(500, flow_id=1, hl_packet_id=5,
                                   arrival_time=1.0)
    results = [reassembler.push(p) for p in packets]
    assert all(r is None for r in results[:-1])
    # the completing segment is the packet's receipt
    final = results[-1]
    assert final is packets[-1]
    assert final.hl_packet_size == 500
    assert final.flow_id == 1
    assert final.hl_packet_id == 5
    assert reassembler.pending == 0


def test_reassembler_interleaves_flows(paper_policy):
    reassembler = Reassembler()
    flow_a = paper_policy.segment(300, flow_id=1, hl_packet_id=1)
    flow_b = paper_policy.segment(300, flow_id=2, hl_packet_id=2)
    assert reassembler.push(flow_a[0]) is None
    assert reassembler.push(flow_b[0]) is None
    assert reassembler.push(flow_a[1]).flow_id == 1
    assert reassembler.push(flow_b[1]).flow_id == 2


def test_reassembler_detects_out_of_order(paper_policy):
    reassembler = Reassembler()
    packets = paper_policy.segment(400, flow_id=1, hl_packet_id=3)
    with pytest.raises(SegmentationError):
        reassembler.push(packets[1])


def test_reassembler_single_segment_packet(paper_policy):
    reassembler = Reassembler()
    (packet,) = paper_policy.segment(150, flow_id=1, hl_packet_id=7,
                                     arrival_time=2.0)
    result = reassembler.push(packet)
    assert result is packet
    assert (result.flow_id, result.hl_packet_id, result.hl_packet_size,
            result.hl_arrival_time) == (1, 7, 150, 2.0)
    assert reassembler.pending == 0
    # a single segment arriving while another packet is in reassembly
    first = paper_policy.segment(300, flow_id=1, hl_packet_id=8)
    assert reassembler.push(first[0]) is None
    (single,) = paper_policy.segment(20, flow_id=1, hl_packet_id=9)
    assert reassembler.push(single).hl_packet_size == 20
    assert reassembler.push(first[1]).hl_packet_size == 300
    assert reassembler.pending == 0


def test_reassembler_rejects_a_short_single_segment(paper_policy):
    (packet,) = paper_policy.segment(150, flow_id=1, hl_packet_id=7)
    packet.hl_packet_size = 151
    with pytest.raises(SegmentationError, match="expected 151"):
        Reassembler().push(packet)


def test_reassembler_checks_every_packet_size(paper_policy):
    # the last segment's hl_packet_size is what the receipt reports, so
    # the received bytes must add up to it, for multi-segment packets too
    first, last = paper_policy.segment(300, flow_id=1, hl_packet_id=4)
    last.hl_packet_size = 301
    reassembler = Reassembler()
    assert reassembler.push(first) is None
    with pytest.raises(SegmentationError, match="expected 301"):
        reassembler.push(last)
    # a size of 0 is no longer read as "unknown"
    (single,) = paper_policy.segment(20, flow_id=2, hl_packet_id=5)
    single.hl_packet_size = 0
    with pytest.raises(SegmentationError, match="expected 0"):
        Reassembler().push(single)


def test_max_segment_slots(paper_policy):
    assert paper_policy.max_segment_slots() == 3
    assert BestFitSegmentationPolicy(["DH1"]).max_segment_slots() == 1
    assert BestFitSegmentationPolicy(["DH5", "DH1"]).max_segment_slots() == 5


# ---------------------------------------------------- channel-adaptive policy

def _adaptive(**kwargs):
    from repro.baseband import ChannelAdaptiveSegmentationPolicy
    return ChannelAdaptiveSegmentationPolicy(**kwargs)


def test_link_quality_estimator_ewma():
    from repro.baseband import LinkQualityEstimator
    est = LinkQualityEstimator(alpha=0.5)
    assert est.loss_estimate == 0.0
    est.observe(True)
    assert est.loss_estimate == pytest.approx(0.5)
    est.observe(False)
    assert est.loss_estimate == pytest.approx(0.25)
    assert est.observations == 2
    with pytest.raises(ValueError):
        LinkQualityEstimator(alpha=0.0)
    with pytest.raises(ValueError):
        LinkQualityEstimator(initial_loss=1.5)


def test_adaptive_policy_starts_fast():
    policy = _adaptive()
    assert not policy.robust_active
    # 176 bytes fit a single DH3 in fast mode
    assert [(p.name, n) for p, n in policy.segment_sizes(176)] == \
        [("DH3", 176)]


def test_adaptive_policy_switches_to_fec_types_under_loss():
    policy = _adaptive(enter_robust=0.3, exit_robust=0.1, min_observations=1)
    for _ in range(50):
        policy.observe_transmission(error=True)
    assert policy.robust_active
    # the same packet now segments into DM types
    names = [p.name for p, _ in policy.segment_sizes(176)]
    assert names == ["DM3", "DM3"]


def test_adaptive_policy_hysteresis_and_recovery():
    policy = _adaptive(enter_robust=0.3, exit_robust=0.1, min_observations=1)
    for _ in range(50):
        policy.observe_transmission(error=True)
    assert policy.robust_active
    # a loss estimate between the thresholds keeps the current mode
    while policy.estimator.loss_estimate > 0.15:
        policy.observe_transmission(error=False)
    assert policy.robust_active
    # clean air eventually re-enables the fast types
    for _ in range(100):
        policy.observe_transmission(error=False)
    assert not policy.robust_active


def test_adaptive_policy_waits_for_min_observations():
    policy = _adaptive(enter_robust=0.1, min_observations=10)
    for _ in range(9):
        policy.observe_transmission(error=True)
    assert not policy.robust_active
    policy.observe_transmission(error=True)
    assert policy.robust_active


def test_adaptive_policy_worst_case_slots_covers_both_modes():
    policy = _adaptive(fast_types=("DH1",), robust_types=("DM1", "DM3"))
    assert policy.max_segment_slots() == 3


def test_adaptive_policy_validates_thresholds():
    with pytest.raises(ValueError):
        _adaptive(enter_robust=0.1, exit_robust=0.2)
    with pytest.raises(ValueError):
        _adaptive(min_observations=0)


# ------------------------------------------------------------ the plan table

def _greedy_reference(policy, size):
    """The per-packet split the plan table replaced: greedy front-to-back
    on the policy's ``choose_type``."""
    remaining, pieces = size, []
    while remaining > 0:
        ptype = policy.choose_type(remaining)
        take = min(remaining, ptype.max_payload)
        pieces.append((ptype, take))
        remaining -= take
    return pieces


def _factory_type_sets():
    """Every ACL / SCO type set the scenario factories and packs use."""
    from repro.experiments.channel_packs import DM_VS_DH_POLICIES
    from repro.scenario.factories import ALLOWED_TYPES
    from repro.scenario.specs import PiconetSpec

    robust = PiconetSpec.__dataclass_fields__["robust_types"].default
    sets = {tuple(ALLOWED_TYPES), tuple(robust), ("DH1",), ("HV3",)}
    sets.update(tuple(types) for types, _ in DM_VS_DH_POLICIES.values())
    return sorted(sets)


#: beyond the largest configured packet (176 bytes): every type set
#: splits into several segments somewhere in the range
PLAN_SIZES = range(1, 1501)


@pytest.mark.parametrize("types", _factory_type_sets())
@pytest.mark.parametrize("policy_cls", [BestFitSegmentationPolicy,
                                        LargestPacketSegmentationPolicy])
def test_plan_table_matches_the_greedy_split(policy_cls, types):
    policy = policy_cls(types)
    for size in PLAN_SIZES:
        expected = _greedy_reference(policy, size)
        # a miss fills the table, a hit reads it: both must agree
        assert policy.segment_sizes(size) == expected, size
        assert list(policy.plan(size)) == expected, size
        packets = policy.segment(size, flow_id=3, hl_packet_id=size,
                                 arrival_time=7.0)
        assert [(p.ptype, p.payload) for p in packets] == expected
        assert [p.segment_index for p in packets] == list(range(len(expected)))
        assert [p.is_last_segment for p in packets] \
            == [False] * (len(expected) - 1) + [True]
        assert all((p.flow_id, p.hl_packet_id, p.hl_packet_size,
                    p.hl_arrival_time) == (3, size, size, 7.0)
                   for p in packets)


def test_adaptive_policy_segments_follow_quality_flips():
    policy = _adaptive(enter_robust=0.3, exit_robust=0.1, min_observations=1)

    def names(size):
        return [p.ptype.name for p in policy.segment(size)]

    # fill the fast mode's table first: a flip must not serve it stale
    assert names(176) == ["DH3"]
    assert names(200) == ["DH3", "DH1"]
    for _ in range(50):
        policy.observe_transmission(error=True)
    assert policy.robust_active
    assert names(176) == ["DM3", "DM3"]
    assert names(200) == ["DM3", "DM3"]
    for _ in range(100):
        policy.observe_transmission(error=False)
    assert not policy.robust_active
    assert names(176) == ["DH3"]
    assert names(200) == ["DH3", "DH1"]
