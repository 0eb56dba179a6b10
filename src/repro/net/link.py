"""Point-to-point link with serialisation and propagation delay.

The link is the final stage of every data path: the SmartNIC MAC (or a
software scheduler's transmit loop) hands frames to :meth:`Link.send`,
which serialises them at the configured line rate — including Ethernet
preamble and inter-frame gap, so a saturated 10 Gbit link carries the
textbook 14.88 Mpps of 64 B frames — and delivers them to the attached
receiver after the propagation delay.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..units import wire_bits
from .packet import Packet

__all__ = ["Link"]


class Link:
    """A store-and-forward link at a fixed bit rate.

    Frames are serialised back-to-back; if :meth:`send` is called while
    a previous frame is still on the wire, the new frame starts when
    the wire frees up (the caller is expected to pace itself — the NIC
    MAC model does, via :meth:`busy_until`).

    Parameters
    ----------
    sim: the shared simulator.
    rate_bps: line rate in bits per second.
    propagation_delay: one-way latency added after serialisation.
    receiver: ``callable(packet)`` invoked at delivery time.
    """

    def __init__(
        self,
        sim,
        rate_bps: float,
        propagation_delay: float = 0.0,
        receiver: Optional[Callable[[Packet], None]] = None,
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.receiver = receiver
        self.name = name
        self._busy_until = 0.0
        #: Frames fully serialised onto the wire.
        self.frames_sent = 0
        #: Payload bytes (L2 sizes) carried.
        self.bytes_sent = 0
        #: Lazy delivery target (PacketSink), or None for the eventful
        #: route. See :meth:`enable_lazy_delivery`.
        self._lazy_sink = None

    def enable_lazy_delivery(self, sink) -> None:
        """Deliver into *sink* lazily instead of via delivery events.

        Each frame's delivery is recorded with
        ``sink.receive_later(finish + propagation, packet)`` — zero
        simulator events on the delivery path; the sink folds the
        tallies in at its next observation. Only valid when nothing
        else observes deliveries (the NIC pipeline checks: receiver is
        the sink itself, no ``on_delivery`` hook, no tracing).
        """
        self._lazy_sink = sink

    def serialization_time(self, packet: Packet) -> float:
        """Seconds to clock one frame (with wire overhead) onto the link."""
        return wire_bits(packet.size) / self.rate_bps

    def busy_until(self) -> float:
        """Absolute time the wire becomes free."""
        return self._busy_until

    def send(self, packet: Packet) -> float:
        """Serialise *packet* and schedule its delivery.

        Returns the absolute time serialisation will finish. Frames
        queue behind any in-flight frame, preserving FIFO order.
        """
        start = max(self.sim._now, self._busy_until)
        finish = start + self.serialization_time(packet)
        self._busy_until = finish
        packet.tx_start = start
        self.frames_sent += 1
        self.bytes_sent += packet.size
        sink = self._lazy_sink
        if sink is not None:
            sink.receive_later(finish + self.propagation_delay, packet)
        else:
            self.sim.schedule_at(finish + self.propagation_delay, self._deliver, packet)
        return finish

    def send_batch(self, packets) -> list:
        """Serialise a burst back-to-back; returns each finish time.

        Arithmetic and delivery order are identical to calling
        :meth:`send` once per frame; the delivery events are inserted
        through the event queue's batched push instead of one
        ``schedule_at`` per frame.
        """
        sim = self.sim
        busy = self._busy_until
        now = sim._now
        if busy < now:
            busy = now
        prop = self.propagation_delay
        sink = self._lazy_sink
        finishes = []
        entries = []
        bytes_sent = 0
        for packet in packets:
            start = busy
            busy = start + self.serialization_time(packet)
            packet.tx_start = start
            bytes_sent += packet.size
            finishes.append(busy)
            if sink is not None:
                sink.receive_later(busy + prop, packet)
            else:
                entries.append((busy + prop, self._deliver, (packet,)))
        self._busy_until = busy
        self.frames_sent += len(finishes)
        self.bytes_sent += bytes_sent
        if entries:
            sim._queue.push_batch(entries)
        return finishes

    def _deliver(self, packet: Packet) -> None:
        packet.delivered_at = self.sim.now
        if self.receiver is not None:
            self.receiver(packet)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``[0, elapsed]`` the wire spent serialising.

        The byte/frame counters are bumped at *schedule* time (batched
        egress computes a whole backlog's serialisation windows the
        moment frames are accepted), so mid-run the implied wire time
        can include serialisation that finishes after *elapsed*. That
        committed backlog is contiguous — each queued frame starts
        exactly when its predecessor finishes — so the part falling
        outside the window is exactly ``busy_until - elapsed`` and is
        subtracted rather than hidden behind a ``min(1.0, ...)`` clamp.
        Once ``elapsed >= busy_until`` the correction vanishes and the
        value matches the historical post-run formula exactly.
        """
        if elapsed <= 0:
            return 0.0
        if self.frames_sent == 0:
            return 0.0
        wire = self._wire_time()
        overhang = self._busy_until - elapsed
        if overhang > 0.0:
            wire -= overhang
            if wire <= 0.0:
                return 0.0
        return min(1.0, wire / elapsed)

    def _wire_time(self) -> float:
        # Total serialisation time implied by the byte/frame counters.
        return (self.bytes_sent * 8 + self.frames_sent * (wire_bits(0))) / self.rate_bps
