"""The assembled SmartNIC processing pipeline (paper Fig. 4).

Data path::

    host VFs --submit()--> [buffer pool] --DMA--> dispatch queue
        --> worker MEs (fixed overhead + NicApp: label, schedule)
        --> reorder system --> shared Tx ring --> traffic manager/MAC
        --> wire (Link) --> receiver

Every stage is bounded; drops are marked with a
:class:`~repro.net.packet.DropReason` and reported through the
``on_drop`` hook so host congestion control can react.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence

from ..core.scheduling import Verdict
from ..net.link import Link
from ..net.packet import DropReason, Packet, PacketFactory
from ..net.sink import PacketSink
from ..sim import Simulator, Store
from ..sim.events import EventRun, TrainCursor
from .apps import FlowValveNicApp, NicApp
from .buffer_pool import BufferPool
from .config import NicConfig
from .fluid import FluidLane
from .reorder import ReorderBuffer
from .rings import TxRing
from .traffic_manager import TrafficManager

__all__ = ["NicPipeline"]


class _IngressTrain:
    """One precomputed emission train (DESIGN.md §7).

    A ``FixedRateSender`` burst (``submit_burst``: one flow and packet
    size, repeated per item) or a batched trace window
    (``submit_trace``: a flow and size per item, pre-merged by time
    across many flows). Shared between the pipeline (arrival cursor)
    and the submitter (lazy sent-packet counting): emissions whose
    instant has passed count as sent even before their DMA-completion
    run item executes.

    The kernel sees the train as one
    :class:`~repro.sim.events.TrainCursor` over ``times`` (offset by
    the RX DMA latency) whose items all share one ``(rec,)`` args
    tuple, and a cursor runs its items in order. So ``seen`` doubles as
    the arrival items' index into ``times``/``flows``/``sizes``, and
    no per-packet object exists before an item runs. The three are any
    indexable sequences: a burst passes lists, and a trace window its
    ledger's ``array('d')`` instants, a tuple of five-tuples and an
    ``array('q')`` of sizes, so that a window holds no float or int
    object per packet.
    """

    __slots__ = (
        "times", "flows", "sizes", "seen", "make", "app", "vf_index", "n", "factory",
    )

    def __init__(self, times: Sequence[float], flows, sizes, make, app, vf_index):
        #: Ascending emission instants of this train.
        self.times = times
        self.flows = flows
        self.sizes = sizes
        #: Run items executed — the index of the next item's instant.
        self.seen = 0
        # Per-train constants of every arrival item, carried here so
        # every run item shares one ``(rec,)`` args tuple.
        self.make = make
        self.app = app
        self.vf_index = vf_index
        self.n = len(times)
        #: The plain PacketFactory behind ``make``, or None when the
        #: maker is custom — lets the fluid lane mint packets without
        #: the two call frames (resolved once per train, not per item).
        maker = getattr(make, "__self__", None)
        self.factory = (
            maker
            if maker is not None
            and maker.__class__ is PacketFactory
            and getattr(make, "__func__", None) is PacketFactory.make
            else None
        )

    def count_at(self, now: float) -> int:
        """Emissions with instant <= now."""
        return bisect_right(self.times, now)

    def settled(self, now: float) -> bool:
        """True when no future clock advance can change count_at."""
        return self.times[-1] <= now


class NicPipeline:
    """The full NIC model: submit packets in, frames come out the wire.

    Parameters
    ----------
    sim: the shared simulator.
    config: NIC geometry and cycle budgets.
    app: the per-packet worker application (FlowValve or pass-through).
    receiver: delivered-frame callback (usually ``PacketSink.receive``).
    on_drop: called with every packet the NIC discards, anywhere in the
        pipeline (buffer exhaustion, queue overflow, scheduler drop).
    wire_propagation: physical propagation delay of the attached wire.
    boundary: a ``BoundaryOutbox`` standing in for the remote receiver
        of a cross-shard wire (DESIGN.md §11). Mutually exclusive with
        ``receiver``: deliveries become ``WireRecord`` appends on the
        outbox instead of local sink folds, via the same lazy-delivery
        route a ``PacketSink`` uses — which keeps the fluid lane
        eligible on boundary NICs.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NicConfig,
        app: NicApp,
        receiver: Optional[Callable[[Packet], None]] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
        wire_propagation: float = 1e-6,
        boundary=None,
    ):
        self.sim = sim
        self.config = config
        self.app = app
        self.on_drop = on_drop
        self.link = Link(
            sim,
            config.line_rate_bps,
            propagation_delay=wire_propagation + config.tx_fixed_latency,
            receiver=receiver,
            name="nic-wire",
        )
        # The batched fast path (DESIGN.md §7) engages only while
        # observability is off: traces and metrics sample mid-packet
        # state the pre-aggregated path doesn't stop at.
        fast = config.fast_path and not sim.tracer.enabled and not sim.metrics.enabled
        #: True when this pipeline runs the batched egress + lazy
        #: buffer-return fast path (bit-identical to the slow path).
        self.fast_path = fast
        #: Max emissions per precomputed ingress train; 0 disables
        #: burst ingress (slow path, tracing, metrics, or config).
        self.ingress_burst = config.ingress_burst if fast else 0
        # Lazy sink deliveries: when the fast path is on and the
        # receiver is a plain PacketSink with no delivery hook, link
        # deliveries fold into the sink's tallies at observation time
        # instead of costing one kernel event per frame.
        if boundary is not None:
            # A boundary NIC's wire terminates in another shard domain:
            # every delivery is a WireRecord append on the outbox, an
            # inherently lazy route (records are only read at window
            # barriers), so it is installed regardless of fast mode.
            self.link.enable_lazy_delivery(boundary)
        elif fast and receiver is not None:
            sink = getattr(receiver, "__self__", None)
            if (
                sink is not None
                and sink.__class__ is PacketSink
                and getattr(receiver, "__func__", None) is PacketSink.receive
                and sink.on_delivery is None
            ):
                self.link.enable_lazy_delivery(sink)
        self.tx_ring = TxRing(sim, depth=config.tx_ring_depth, virtual=fast)
        self.traffic_manager = TrafficManager(
            sim, self.tx_ring, self.link,
            on_sent=self._on_sent,
            on_sent_at=self._on_sent_at if fast else None,
            fast=fast,
        )
        self.dispatch = Store(sim, capacity=config.dispatch_depth, name="nic-dispatch")
        self.buffers = BufferPool(sim, config.buffer_count, config.buffer_recycle_delay)
        self.reorder = ReorderBuffer(
            self._emit_to_tx_fast if fast else self._emit_to_tx, sim=sim,
            emit_burst=self._emit_burst if fast else None,
        )
        # --- statistics ------------------------------------------------
        self._submitted = 0
        self._ingress_trains: List[_IngressTrain] = []
        self.forwarded = 0
        self.dropped = 0
        self.drops_by_reason = {reason: 0 for reason in DropReason}
        # --- observability ---------------------------------------------
        # The enabled tracer, or None: every emission site is a single
        # identity check when observability is off (the default), so
        # the PR-1 hot-path wins hold.
        tracer = sim.tracer
        self._trace = tracer if tracer.enabled else None
        metrics = sim.metrics
        if metrics.enabled:
            metrics.probe("nic.submitted", lambda: self.submitted)
            metrics.probe("nic.forwarded", lambda: self.forwarded)
            metrics.probe("nic.dropped", lambda: self.dropped)
            metrics.probe("nic.dispatch.depth", lambda: len(self.dispatch))
            metrics.probe("nic.tx_ring.depth", lambda: len(self.tx_ring))
            metrics.probe("nic.tx_ring.max_occupancy", lambda: self.tx_ring.max_occupancy)
            metrics.probe("nic.buffers.free", lambda: self.buffers.free)
            metrics.probe("nic.buffers.min_free", lambda: self.buffers.min_free)
            metrics.probe("nic.reorder.in_flight", lambda: self.reorder.in_flight)
            metrics.probe("nic.reorder.parked", lambda: self.reorder.parked)
            metrics.probe("nic.reorder.max_parked", lambda: self.reorder.max_parked)
            self._drop_counters = {
                reason: metrics.counter(f"nic.drops.{reason.value}") for reason in DropReason
            }
        else:
            self._drop_counters = None
        app.bind(self)
        # The app may provide a pre-aggregated handler (single-wakeup
        # packet path); without one the generic loop runs even in fast
        # mode (the egress/buffer fast paths still apply).
        fast_handle = app.fast_handler() if fast else None
        self._fast_handle = fast_handle
        self._arrive_dma = self._arrive_fast if fast else self._arrive
        worker = self._worker_fast if fast_handle is not None else self._worker
        self._workers = [sim.process(worker(i)) for i in range(config.n_workers)]
        # The fluid fast-forward lane (DESIGN.md §7) engages only when
        # every observation channel it bypasses is already lazy or
        # absent: the FlowValve trylock fast handler (whose elided
        # branch it replays analytically), lazy sink deliveries, and no
        # per-drop callback. Anything else falls back to the per-packet
        # fast path, which is the reference it must match bit for bit.
        self._fluid = None
        #: Shared ingress run merging every sender's train while the
        #: fluid lane is on (see :meth:`_push_train`).
        self._ingress_run = None
        if (
            config.fluid
            and fast
            and getattr(fast_handle, "__func__", None) is FlowValveNicApp.handle_fast
            and self.link._lazy_sink is not None
            and on_drop is None
        ):
            self._fluid = FluidLane(self)
            self._arrive_dma = self._fluid.arrival

    # ------------------------------------------------------------------
    @classmethod
    def with_flowvalve(
        cls,
        sim: Simulator,
        config: NicConfig,
        frontend,
        receiver: Optional[Callable[[Packet], None]] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
        wire_propagation: float = 1e-6,
        boundary=None,
    ) -> "NicPipeline":
        """Assemble a pipeline running a FlowValve front end's policy."""
        app = FlowValveNicApp(frontend.labeler, frontend.scheduler)
        return cls(sim, config, app, receiver=receiver, on_drop=on_drop,
                   wire_propagation=wire_propagation, boundary=boundary)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    @property
    def submitted(self) -> int:
        """Packets offered to the NIC up to the current time.

        With burst ingress, emissions whose instant has passed but
        whose DMA-completion run item has not executed yet still count
        (lazy, like the sink tallies) — so the counter reads the same
        as the per-packet route at any observation point.
        """
        n = self._submitted
        trains = self._ingress_trains
        if trains:
            now = self.sim._now
            for rec in trains:
                n += rec.count_at(now) - rec.seen
        return n

    def submit(self, packet: Packet) -> bool:
        """Offer one packet from a host VF queue.

        Returns False when the NIC had to drop it at ingress (no free
        buffer). Accepted packets arrive at the dispatch queue after
        the PCIe DMA latency.
        """
        self._submitted += 1
        packet.nic_arrival = self.sim._now  # hot path: skip the property
        fluid = self._fluid
        if fluid is not None:
            # Deferred fluid completions release buffers lazily; their
            # matured release_at entries must exist before this
            # admission decision reads the pool.
            micro = fluid._micro
            if micro and micro[0][0] <= self.sim._now:
                fluid._flush(self.sim._now)
        if not self.buffers.try_allocate():
            self._drop(packet, DropReason.NO_BUFFER, release_buffer=False)
            return False
        self.sim.schedule(self.config.rx_dma_latency, self._arrive_dma, packet)
        return True

    def submit_burst(
        self,
        make: Callable[..., Packet],
        times: List[float],
        packet_size: int,
        flow,
        app: str,
        vf_index: int,
    ) -> _IngressTrain:
        """Offer a precomputed train of future emissions in one call.

        *times* are ascending absolute emission instants (>= now). The
        whole train's DMA completions enter the kernel as a single
        run-lane entry (``EventQueue.push_run``): one heap operation
        for the burst instead of one event per packet. Admission — the
        buffer-allocation decision and any NO_BUFFER drop — stays a
        per-arrival decision, taken as of each emission instant
        (``BufferPool.try_allocate_asof``); packets are created inside
        the arrival items so factory sequence numbers are assigned in
        arrival order, exactly as per-packet ``submit`` would.

        Returns the shared :class:`_IngressTrain` record; the sender
        uses it for lazy sent-packet counting.
        """
        n = len(times)
        rec = _IngressTrain(times, [flow] * n, [packet_size] * n, make, app, vf_index)
        fluid = self._fluid
        return self._push_train(rec, None if fluid is None else fluid.burst_arrival)

    def submit_trace(
        self,
        make: Callable[..., Packet],
        times: Sequence[float],
        flows: Sequence,
        sizes: Sequence[int],
        app: str,
        vf_index: int = 0,
    ) -> _IngressTrain:
        """Offer one window's multi-flow emission train in one call.

        *times* are ascending absolute emission instants (>= now), with
        parallel *flows* (five-tuples) and *sizes* (minted packet
        sizes), any indexable sequences; the train keeps them as given
        (the trace workload passes typed arrays that its window ledger
        shares). The batched trace workload pre-merges every active
        flow's instants for the window and hands the NIC a single
        train, so ingress costs one run merge per *window* instead of
        one heap event per packet (or one train per flow, whose
        interleaved merges into the shared run would be quadratic in
        the flow count). Admission and packet minting follow the
        ``submit_burst`` contract: per-arrival buffer decisions as-of
        each instant, factory sequence numbers in arrival order.
        """
        rec = _IngressTrain(times, flows, sizes, make, app, vf_index)
        fluid = self._fluid
        return self._push_train(rec, None if fluid is None else fluid.trace_arrival)

    def _push_train(self, rec: _IngressTrain, fluid_arrival) -> _IngressTrain:
        """Enqueue *rec* as one kernel train of DMA completions.

        The kernel's :class:`~repro.sim.events.TrainCursor` reads the
        train's own instant list with the RX DMA latency as its offset,
        and every item shares one ``(rec,)`` args tuple, so the train
        costs the kernel one cursor however many emissions it holds.
        With the lane on, every item runs *fluid_arrival* (the lane's
        fused frame) and the train merges into the one shared ingress
        run, so concurrent senders stop shredding each other's trains
        into per-item drain segments (item ``(time, seq)`` order — and
        hence behaviour — is unchanged; only the executed-event count
        drops). Off, each train keeps its own run so the fallback
        reproduces the burst-ingress counts exactly.
        """
        self._ingress_trains.append(rec)
        arrive = self._train_arrival if fluid_arrival is None else fluid_arrival
        train = TrainCursor(rec.times, arrive, (rec,), offset=self.config.rx_dma_latency)
        if fluid_arrival is None:
            self.sim._queue.push_run(train)
        else:
            self.sim._queue.merge_run(self.ingress_run(), train)
        return rec

    def ingress_run(self) -> EventRun:
        """The shared fluid-mode ingress run, created/revived on demand.

        Every producer that feeds this pipeline while the fluid lane is
        on — local burst senders and remote barrier trains alike —
        merges into this one run, so concurrent arrival streams cost
        one drained segment instead of shredding each other into
        per-item heap pops.
        """
        run = self._ingress_run
        if run is None or run.cancelled:
            run = self._ingress_run = EventRun()
        return run

    def _train_arrival(self, rec: _IngressTrain) -> None:
        """Per-item DMA completion of an ingress train with the fluid
        lane off (with the lane on, ``FluidLane.burst_arrival`` fuses
        this with the lane's gate)."""
        i = rec.seen
        rec.seen = seen = i + 1
        if seen == rec.n:
            self._ingress_trains.remove(rec)
        t_emit = rec.times[i]
        self._submitted += 1
        packet = rec.make(
            rec.sizes[i], rec.flows[i], t_emit, app=rec.app, vf_index=rec.vf_index
        )
        packet.nic_arrival = t_emit
        if not self.buffers.try_allocate_asof(t_emit):
            # Same decision the per-packet route takes at t_emit; the
            # drop is *recorded* here at arrival (t_emit + DMA latency)
            # — the only burst-mode timing shift, see DESIGN.md §7.
            self._drop(packet, DropReason.NO_BUFFER, release_buffer=False)
            return
        self._arrive_dma(packet)

    def _arrive(self, packet: Packet) -> None:
        if not self.dispatch.try_put(packet):
            self._drop(packet, DropReason.QUEUE_FULL)

    def _arrive_fast(self, packet: Packet) -> None:
        # Synchronous handoff to a parked worker (DESIGN.md §7): the
        # worker resumes inside this DMA-completion callback instead of
        # through a zero-delay event — the dominant per-packet handoff
        # when workers outnumber the offered load.
        if not self.dispatch.try_put_now(packet):
            self._drop(packet, DropReason.QUEUE_FULL)

    # ------------------------------------------------------------------
    # the worker micro-engines
    # ------------------------------------------------------------------
    def _worker(self, worker_id: int):
        """Run-to-completion loop of one worker ME.

        Per-packet state lives in hoisted locals: the loop runs for
        every packet of an experiment, so attribute chains
        (``self.config.costs...``) are resolved once, and the fixed
        overhead — a constant — is converted to seconds once.
        """
        dispatch_get = self.dispatch.get
        reorder = self.reorder
        handle = self.app.handle
        drop = self._drop
        fixed_overhead = self.config.seconds(self.config.costs.fixed_overhead)
        forward = Verdict.FORWARD
        trace = self._trace
        sim = self.sim
        while True:
            packet: Packet = yield dispatch_get()
            ticket = reorder.take_ticket()
            yield fixed_overhead
            verdict = yield from handle(packet)
            if trace is not None:
                trace.emit(
                    sim._now, "nic.worker", "verdict",
                    verdict=verdict.value, worker=worker_id,
                    app=packet.app, size=packet.size,
                )
            if verdict is forward:
                reorder.complete(ticket, packet)
            else:
                reorder.complete(ticket, None)
                reason = packet.drop_reason if packet.drop_reason is not None else DropReason.SCHED_RED
                drop(packet, reason, already_marked=True)

    def _worker_fast(self, worker_id: int):
        """Fast-path worker loop (DESIGN.md §7).

        Differs from :meth:`_worker` in two ways, both invisible to the
        model: the app's pre-aggregated handler charges the fixed
        overhead itself (inside its first merged wakeup), and when the
        dispatch queue is non-empty the next packet is taken
        synchronously (``try_get``) instead of paying a resume event
        for a get that would succeed immediately.
        """
        dispatch_get = self.dispatch.get
        try_get = self.dispatch.try_get
        reorder = self.reorder
        handle = self._fast_handle
        drop = self._drop
        forward = Verdict.FORWARD
        while True:
            packet: Packet = yield dispatch_get()
            while True:
                ticket = reorder.take_ticket()
                verdict = yield from handle(packet)
                if verdict is forward:
                    reorder.complete(ticket, packet)
                else:
                    reorder.complete(ticket, None)
                    reason = packet.drop_reason if packet.drop_reason is not None else DropReason.SCHED_RED
                    drop(packet, reason, already_marked=True)
                packet = try_get()
                if packet is None:
                    break

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------
    def _emit_to_tx(self, packet: Packet) -> None:
        if self.tx_ring.offer(packet):
            self.forwarded += 1
        else:
            self._drop(packet, DropReason.QUEUE_FULL, already_marked=True)

    def _emit_to_tx_fast(self, packet: Packet) -> None:
        if self.traffic_manager.offer(packet):
            self.forwarded += 1
        else:
            self._drop(packet, DropReason.QUEUE_FULL, already_marked=True)

    def _emit_burst(self, packets: list) -> None:
        """Release a reorder run to egress in one batched call."""
        rejected = self.traffic_manager.offer_burst(packets)
        self.forwarded += len(packets) - len(rejected)
        for packet in rejected:
            self._drop(packet, DropReason.QUEUE_FULL, already_marked=True)

    def _on_sent(self, packet: Packet) -> None:
        self.buffers.release()

    def _on_sent_at(self, packet: Packet, finish: float) -> None:
        # Lazy fast-path buffer return: effective at serialisation
        # finish + recycle delay, folded in at the next observation.
        self.buffers.release_at(finish)

    # ------------------------------------------------------------------
    def _drop(
        self,
        packet: Packet,
        reason: DropReason,
        release_buffer: bool = True,
        already_marked: bool = False,
    ) -> None:
        if not already_marked or not packet.dropped:
            packet.mark_dropped(reason)
        self.dropped += 1
        # Tally under the *caller's* reason: an ``already_marked``
        # packet keeps its original mark (above), but this particular
        # discard happened for ``reason`` — e.g. a packet marked by an
        # earlier stage that then hits a full Tx ring must count as a
        # queue_full drop, not under its stale mark.
        self.drops_by_reason[reason] += 1
        if self._trace is not None:
            self._trace.emit(
                self.sim._now, "nic.pipeline", "drop",
                reason=reason.value, app=packet.app, size=packet.size,
                marked=packet.drop_reason.value if packet.drop_reason is not None else None,
            )
        if self._drop_counters is not None:
            self._drop_counters[reason].inc()
        if release_buffer:
            if self.fast_path:
                # Lazy route: same effective relink time as release()
                # (now + recycle delay), no simulator event.
                self.buffers.release_at(self.sim._now)
            else:
                self.buffers.release()
        if self.on_drop is not None:
            self.on_drop(packet)

    # ------------------------------------------------------------------
    @property
    def drop_ratio(self) -> float:
        """Dropped over submitted, 0.0 before any traffic."""
        return self.dropped / self.submitted if self.submitted else 0.0

    def stats_summary(self) -> str:
        """One-paragraph text summary for reports."""
        reasons = ", ".join(
            f"{reason.value}={count}" for reason, count in self.drops_by_reason.items() if count
        )
        return (
            f"NIC: submitted={self.submitted} forwarded={self.forwarded} "
            f"dropped={self.dropped} ({reasons or 'none'}) "
            f"tx_ring_max={self.tx_ring.max_occupancy} "
            f"buffers_min_free={self.buffers.min_free}"
        )
