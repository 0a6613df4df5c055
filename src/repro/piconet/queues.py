"""Per-flow transmission queues with segmentation.

Each flow has exactly one :class:`FlowQueue` located at the transmitting
side (master for downlink flows, slave for uplink flows).  The queue
segments higher-layer packets into baseband packets lazily and supports
peek/confirm semantics so a segment lost on a noisy channel is
retransmitted automatically (ARQ).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.baseband.packets import BasebandPacket
from repro.baseband.segmentation import BestFitSegmentationPolicy, SegmentationPolicy
from repro.piconet.flows import FlowSpec, HLPacket


class FlowQueue:
    """FIFO of higher-layer packets plus the in-progress segment buffer."""

    def __init__(self, spec: FlowSpec,
                 policy: Optional[SegmentationPolicy] = None):
        self.spec = spec
        self.policy = policy if policy is not None else BestFitSegmentationPolicy(
            spec.allowed_types)
        self._packets: Deque[HLPacket] = deque()
        self._segments: Deque[BasebandPacket] = deque()
        #: total higher-layer bytes ever enqueued
        self.offered_bytes = 0
        #: total higher-layer packets ever enqueued
        self.offered_packets = 0

    # -- producer side -------------------------------------------------------
    def push(self, packet: HLPacket) -> None:
        """Enqueue one higher-layer packet."""
        if packet.flow_id != self.spec.flow_id:
            raise ValueError(
                f"packet for flow {packet.flow_id} pushed to queue of flow "
                f"{self.spec.flow_id}")
        self._packets.append(packet)
        self.offered_bytes += packet.size
        self.offered_packets += 1

    # -- state inspection ------------------------------------------------------
    def has_data(self) -> bool:
        """Whether at least one segment could be transmitted right now."""
        return bool(self._segments) or bool(self._packets)

    @property
    def queued_packets(self) -> int:
        """Higher-layer packets not yet fully segmented out."""
        return len(self._packets) + (1 if self._segments else 0)

    @property
    def queued_bytes(self) -> int:
        """User bytes still waiting for transmission."""
        pending = sum(segment.payload for segment in self._segments)
        return pending + sum(packet.size for packet in self._packets)

    def head_arrival_time(self) -> Optional[float]:
        """Arrival time of the oldest queued data (``None`` when empty)."""
        if self._segments:
            return self._segments[0].hl_arrival_time
        if self._packets:
            return self._packets[0].created
        return None

    # -- consumer side (peek / confirm for ARQ) ------------------------------
    def peek_segment(self) -> Optional[BasebandPacket]:
        """Next baseband segment to transmit, without consuming it."""
        segments = self._segments
        if not segments:
            if not self._packets:
                return None
            self._fill_segments()
        return segments[0] if segments else None

    def confirm_segment(self) -> BasebandPacket:
        """Consume the segment returned by the last :meth:`peek_segment`."""
        if not self._segments:
            raise RuntimeError("confirm_segment() without a pending segment")
        return self._segments.popleft()

    def _fill_segments(self) -> None:
        if self._segments or not self._packets:
            return
        packet = self._packets.popleft()
        self._segments.extend(self.policy.segment(
            packet.size, packet.flow_id, packet.packet_id, packet.created))

    def __len__(self) -> int:
        return self.queued_packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowQueue(flow={self.spec.flow_id}, packets={self.queued_packets}, "
                f"bytes={self.queued_bytes})")
