"""The fluid fast-forward lane (DESIGN.md §7).

The batched ingress/egress fast paths still execute one merged worker
wakeup per packet. This lane removes that last kernel event for the
common case: a *quiescent* flow — a label from the EMC or from a
replayed classifier walk, every class on the path provably skip-only
at the packet's walk time, and the whole worst-case decision inside
the run horizon. For such a packet the entire remaining trajectory of
the fast handler (:meth:`FlowValveNicApp.handle_fast`, elided branch)
is determined at arrival: the merged wakeup time ``t2``, the meter outcome against a
closed-form token balance, and (on red) the borrow walk's bounded
yield chain.

Instead of parking a worker generator on an ``At(t2)`` kernel event,
the lane performs the arrival-side effects immediately (ticket, cache
refresh, early path touch — exactly what the real handler does before
its first yield) and *defers* the rest as micro-steps on a private
heap keyed ``(virtual_time, seq)``, with seqs drawn from the kernel
queue's shared counter at the same moments the real path would create
its resume events. Deferred steps are **flushed** — applied at their
original virtual times, in kernel order — before anything can observe
the affected state: at every later NIC arrival (and at ``submit``/
burst-arrival admission, ahead of the buffer-pool read) and at end of
``run()`` via the simulator's end hooks. Completions leave through
the lane's own inlined egress chain (:meth:`FluidLane._egress`), which
takes the in-order run the reorder buffer frees
(``ReorderBuffer.release``) and sends it at the packet's true
completion time, so egress arithmetic, lazy sink deliveries and
buffer returns never read the wall clock.

Absorption runs in one of two modes. In **mixed** mode — whenever a
real worker may still be mid-packet (cold caches, an update-due spill
draining) — eligible packets are still absorbed, but each deferred
step is pushed as an ordinary kernel event at its exact virtual time,
so it interleaves with in-flight worker resumes by (time, seq) just
as the real wakeup would (one event per packet — still cheaper than a
generator resume, and crucially it keeps real workers parked). Once
every worker is parked and the dispatch queue is empty, the lane
**engages**: steps go to the private heap and cost zero kernel
events. A packet that fails eligibility *suspends* an engaged lane —
pending micro-steps are materialised as kernel events (ascending push
order preserves their relative order) — and takes the real path: a
parked worker picks it up synchronously, exactly as ``_arrive_fast``
would. The lane re-engages a few arrivals later, as soon as that
worker parks again; materialised steps may still be pending then,
which is safe because their kernel events flush matured private steps
before running.

Bit-identity argument: eligibility is judged with exactly the state
the real handler's elide branch would read at the same instant (the
elide conditions are already robust to concurrent workers — a trylock
on a non-due class cannot be won, and ``last_update`` only grows), so
the lane absorbs precisely the packets whose real trajectory is
determined at arrival. Each handler then replicates the corresponding
slice of the elided fast handler with the same float expressions (via
the app's cycle memo) at the same virtual timestamps: in mixed mode
the kernel orders the steps; while engaged, flush-before-observation
keeps shared state (tree flags, buckets, EMC, reorder tickets, TM/
link, buffer pool) coherent with what the real interleaving would
have produced. The only divergence window is an exact floating-point
time tie between a deferred step and an unrelated kernel event after
a suspend re-keys seqs — measure-zero under the jittered/offset
workloads this repo runs (see DESIGN.md §7).
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import List, Optional

from ..errors import BufferExhausted
from ..net.boundary import BoundaryOutbox
from ..net.packet import DropReason, Packet
from ..units import ETH_OVERHEAD

__all__ = ["FluidLane"]


class _FluidJob:
    """In-flight per-packet state between deferred micro-steps."""

    __slots__ = ("packet", "ticket", "path", "size_bits", "lenders", "idx", "won")

    def __init__(self, packet, ticket: int, path: List):
        self.packet = packet
        self.ticket = ticket
        self.path = path
        self.size_bits = 0.0
        #: Flattened lender leaves (shared cached list), or None.
        self.lenders: Optional[List] = None
        #: Cursor into ``lenders`` during the borrow walk.
        self.idx = 0
        #: Whether the current lender's update trylock was won.
        self.won = False


class FluidLane:
    """Analytic fast-forward of quiescent-flow packets (one per-packet
    kernel event → zero). Constructed by :class:`NicPipeline` only when
    the full fast path is on, the app's fast handler is FlowValve's
    trylock handler, deliveries are lazy and no drop hook is attached.
    """

    def __init__(self, pipeline):
        self._pipeline = pipeline
        sim = pipeline.sim
        self._sim = sim
        self._queue = sim._queue
        app = pipeline.app
        self._labeler = app.labeler
        self._scheduler = app.scheduler
        self._cycles = app._cycles
        self._costs = pipeline.config.costs
        # Constant cycle->seconds conversions of the fast handler's
        # fixed cost terms, folded out of the per-packet path. Each is
        # the exact float the app's cycle memo returns for the same
        # argument, so the arithmetic below stays bit-identical.
        cyc = app._cycles
        costs = pipeline.config.costs
        self._c_label = cyc(costs.fixed_overhead)
        self._c_emc = cyc(costs.emc_hit)
        self._c_meter = cyc(costs.meter)
        self._c_borrow_lost = cyc(costs.borrow_query)
        self._c_borrow_won = cyc(costs.borrow_query + costs.update_body)
        #: n_nodes -> cyc(n * (sched_per_class + update_trylock)).
        self._c_walk: dict = {}
        self._dispatch = pipeline.dispatch
        self._reorder = pipeline.reorder
        self._tm = pipeline.traffic_manager
        self._overhead_bytes = app.scheduler.params.overhead_bytes
        self._continuous_refill = app.scheduler.params.continuous_refill
        # Egress-chain bindings for the inlined forward epilogue (the
        # construction guard pins this exact chain: virtual Tx ring,
        # lazy sink deliveries, lazy buffer returns, no tracing).
        self._buffers = pipeline.buffers
        self._tx_ring = pipeline.tx_ring
        self._link = pipeline.link
        self._sink = pipeline.link._lazy_sink
        #: True when the lazy sink is a cross-shard BoundaryOutbox
        #: (DESIGN.md §11): deliveries become WireRecord appends at the
        #: exact virtual arrival time instead of PacketSink pendings.
        #: The sink's class never changes after construction, so this
        #: is resolved once. Never cache ``.records`` itself — barrier
        #: drains rebind it.
        self._boundary = self._sink.__class__ is BoundaryOutbox
        self._rate_bps = pipeline.link.rate_bps
        self._prop_delay = pipeline.link.propagation_delay
        self._n_workers = pipeline.config.n_workers
        #: Deferred steps may mature past a window-barrier ``run()``
        #: pause up to this absolute time (see Simulator.carry_horizon;
        #: the topology builder sets it to the spec duration before the
        #: pipeline is constructed).
        self._carry = sim.carry_horizon
        #: cyc(emc_hit + classify_per_rule * max(1, n_rules)) — the
        #: miss-path labeling cost; resolved lazily (rule count is
        #: fixed after policy install).
        self._c_miss = None
        #: Deferred micro-steps: ``(virtual_time, seq, fn, job)`` heap.
        self._micro: list = []
        #: Engaged: absorbing eligible packets, deferring to the heap.
        #: Starts False — workers must be parked before first engage.
        self._active = False
        #: In-flight fluid jobs; each stands for one busy worker.
        self._live = 0
        #: Micro-steps materialised as kernel events, not yet executed.
        self._materialized = 0
        #: Borrow tuple -> flattened lender-leaf list.
        self._lender_cache: dict = {}
        #: Borrow tuple -> worst-case borrow-walk duration bound.
        self._lender_bound: dict = {}
        #: hierarchy tuple -> (path, [(node, interval, expire), ...]):
        #: the per-class params of the quiescence test, prefetched once
        #: (SchedulingParams never change after tree construction). The
        #: stored path is identity-checked against the scheduler's
        #: path cache on every hit: a replayed miss prefetches a fresh
        #: pure resolve, and the commit then memoises another list.
        self._path_meta: dict = {}
        # --- statistics -------------------------------------------------
        #: Packets absorbed by the lane (no worker wakeup).
        self.absorbed = 0
        #: Of those, EMC misses absorbed via the analytic classify
        #: replay.
        self.miss_absorbed = 0
        #: Packets that failed eligibility and took the real path.
        self.spills = 0
        #: Suspends that actually materialised pending steps.
        self.suspends = 0
        # Pending micro-steps own no kernel event: report their last
        # virtual time so open-ended runs still end at the right clock,
        # and flush them once the final clock is settled.
        sim.add_drain_hook(self._pending_time)
        sim.add_end_hook(self._end_flush)

    # ------------------------------------------------------------------
    # arrival entry (installed as the pipeline's ``_arrive_dma``)
    # ------------------------------------------------------------------
    def arrival(self, packet) -> None:
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:
            self._flush(now)
        if not self._active:
            # Engage the private heap once no real worker is mid-packet
            # (materialised fluid steps may still be pending — their
            # kernel events flush the heap before running, so the two
            # lanes stay mutually ordered). Until then the lane runs in
            # *mixed* mode: packets are still absorbed, but every
            # deferred step is a kernel event at its exact time, which
            # interleaves correctly with in-flight worker resumes.
            dispatch = self._dispatch
            if not dispatch._items and len(dispatch._getters) == self._n_workers:
                self._active = True
        if not self._try_fluid(packet, now):
            self._spill(packet)

    def burst_arrival(self, rec) -> None:
        """Fused run-item callback of an ingress train with the lane
        on: ``NicPipeline._train_arrival`` + :meth:`arrival` in one
        frame, with the per-packet callees (micro flush, packet mint,
        buffer admission) inlined — at this event rate every call frame
        on the path is measurable — then the one gate,
        :meth:`_try_fluid`. It indexes the record's ``times``/``flows``/
        ``sizes`` sequences: lists for a burst, typed arrays and a tuple
        for a trace window."""
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:  # inlined _flush(now)
            while micro and micro[0][0] <= now:
                tv, _, fn, jb = _heappop(micro)
                fn(tv, jb)
        pipeline = self._pipeline
        i = rec.seen  # the train's cursor (see _IngressTrain)
        rec.seen = seen = i + 1
        if seen == rec.n:
            pipeline._ingress_trains.remove(rec)
        t_emit = rec.times[i]
        pipeline._submitted += 1
        factory = rec.factory
        if factory is not None:  # inlined PacketFactory.make
            seq = factory._next_seq
            factory._next_seq = seq + 1
            factory.created += 1
            packet = Packet(
                seq, rec.sizes[i], rec.flows[i], t_emit, rec.app, rec.vf_index, -1
            )
        else:
            packet = rec.make(
                rec.sizes[i], rec.flows[i], t_emit, app=rec.app, vf_index=rec.vf_index
            )
        packet.nic_arrival = t_emit
        # Inlined BufferPool.try_allocate_asof(t_emit).
        buffers = self._buffers
        pending = buffers._pending
        if pending and pending[0] <= t_emit:
            free = buffers._free
            while pending and pending[0] <= t_emit:
                _heappop(pending)
                free += 1
            if free > buffers.count:
                raise BufferExhausted("buffer pool over-released")
            buffers._free = free
        free = buffers._free - 1
        if free >= 0:
            buffers._free = free
            buffers._outstanding += 1
            if free < buffers.min_free:
                buffers.min_free = free
        else:
            buffers.exhaustion_drops += 1
            pipeline._drop(packet, DropReason.NO_BUFFER, release_buffer=False)
            return
        if not self._active:  # as in arrival()
            dispatch = self._dispatch
            if not dispatch._items and len(dispatch._getters) == self._n_workers:
                self._active = True
        if not self._try_fluid(packet, now):
            self._spill(packet)

    #: The same frame for multi-flow trace trains
    #: (``NicPipeline.submit_trace``). perfbench's spans time burst and
    #: trace ingress under these two names.
    trace_arrival = burst_arrival

    def _spill(self, packet) -> None:
        """An ineligible packet: leave engaged mode (materialising any
        pending steps) and take the real worker path."""
        if self._active:
            self._suspend()
        self.spills += 1
        self._route_real(packet)

    def _route_real(self, packet) -> None:
        """Hand a packet to the real worker path, mirroring what the
        per-packet fast arrival would have done at this instant *in the
        real execution* — where ``_live`` workers are busy with the
        lane's in-flight jobs."""
        dispatch = self._dispatch
        if len(dispatch._getters) > self._live:
            # A conceptual worker is free: synchronous handoff, exactly
            # like ``NicPipeline._arrive_fast``.
            if not dispatch.try_put_now(packet):
                self._pipeline._drop(packet, DropReason.QUEUE_FULL)
            return
        # Every conceptual worker is busy (parked peers stand in for
        # in-flight fluid jobs): queue exactly as try_put would with no
        # getter free; the first finishing job hands it over
        # (:meth:`_job_handoff`) at its completion time — the same moment
        # the real worker's ``try_get`` would have picked it up.
        if dispatch.capacity > 0 and len(dispatch._items) >= dispatch.capacity:
            self._pipeline._drop(packet, DropReason.QUEUE_FULL)
            return
        dispatch._items.append(packet)
        dispatch.total_put += 1

    # ------------------------------------------------------------------
    # eligibility + arrival-side effects
    # ------------------------------------------------------------------
    def _try_fluid(self, packet, now: float) -> bool:
        """Absorb *packet* if its whole decision is determined; returns
        False (no state touched) when it must take the real path.

        The one quiescence gate, for EMC hits and replayed EMC misses
        alike. The read-only checks mirror the elided branch of
        ``handle_fast`` term for term; the mutations that follow
        replicate the worker's pre-yield effects in the worker's exact
        order (ticket, labeling, early path touch, skip counting) with
        the same float expressions. A hit and a miss differ only in
        where the label comes from (the EMC entry, or
        :meth:`_try_fluid_miss`'s rule walk), the walk cost charged
        before the scheduling walk (``emc_hit``, or ``_c_miss``), and
        the labeling commit: a hit replays ``ExactMatchCache.get``'s
        bookkeeping and stamps the label; a miss runs the real, counted
        ``labeler.label`` — cache get-miss, the classifier's counters
        for the pre-walk's match, insert with its eviction — and
        memoises the path through the real ``PathCache``. So outcomes
        are bit-identical to the per-packet path; only the kernel-event
        count differs.
        """
        dispatch = self._dispatch
        if dispatch._items or len(dispatch._getters) <= self._live:
            # No conceptual worker free (parked peers stand in for the
            # lane's in-flight jobs; in mixed mode the rest are busy
            # with real packets): the real execution would queue this
            # packet behind the dispatch backlog.
            return False
        cache = self._labeler.cache
        # Label time: arrival + fixed overhead (handle_fast's ``t``).
        t = now + self._c_label
        entries = cache._entries
        # LabelingFunction.label's key.
        key = (packet.flow, packet.vf_index, packet.app)
        label = entries.get(key)
        hit = label is not None
        if hit:
            t_walk = t + self._c_emc
        else:
            # EMC miss: replay the classifier walk analytically.
            walked = self._try_fluid_miss(packet)
            if walked is None:
                return False
            label, matched = walked
            c_miss = self._c_miss
            if c_miss is None:
                costs = self._costs
                c_miss = self._c_miss = self._cycles(
                    costs.emc_hit
                    + costs.classify_per_rule * max(1, len(self._labeler.classifier))
                )
            t_walk = t + c_miss
        scheduler = self._scheduler
        hierarchy = label.hierarchy
        path = scheduler.path_cache.entries.get(hierarchy)
        resolved = path is not None
        if not resolved:
            if hit:
                return False
            # Pure resolve for the quiescence probe; the commit below
            # memoises through the real PathCache (counter included).
            tree = scheduler.tree
            path = [tree.node(classid) for classid in hierarchy]
        meta = self._path_meta.get(hierarchy)
        if meta is None or meta[0] is not path:
            meta = self._path_meta[hierarchy] = (
                path,
                [(n, n.params.update_interval, n.params.expire_after) for n in path],
            )
        # The fast handler's wakeup-elision test (handle_fast), three
        # conditions per class in its short-circuit order: judged with
        # current state the walk is skip-only, so the class's buckets
        # evolve in closed form until ``t_walk``.
        for node, interval, expire in meta[1]:
            if node.updating:
                return False
            if t_walk - node.last_update >= interval:
                return False
            if t_walk - node.last_seen > expire:
                return False
        n_nodes = len(path)
        walk = self._c_walk
        c_walk = walk.get(n_nodes)
        if c_walk is None:
            costs = self._costs
            c_walk = walk[n_nodes] = self._cycles(
                n_nodes * (costs.sched_per_class + costs.update_trylock)
            )
        t2 = t_walk + c_walk
        t2 += self._c_meter
        horizon = self._sim._horizon
        if self._carry > horizon:
            horizon = self._carry  # window barrier: a pause, not an end
        if t2 > horizon:
            return False  # handle_fast would keep the slow wakeups
        lenders = None
        if label.borrow:
            lenders = self._lenders(label.borrow)
            if lenders and t2 + self._lender_bound[label.borrow] > horizon:
                # Worst case every lender wins its update trylock. The
                # precomputed bound over-approximates the real chain's
                # rounded step-by-step adds (see _lenders), so it can
                # only spill a borderline packet to the real path —
                # behavior-neutral by construction — never absorb one
                # whose chain would outrun the horizon.
                return False
        # --- absorbed: the worker's pre-yield effects -----------------
        reorder = self._reorder  # inlined ReorderBuffer.take_ticket
        ticket = reorder._next_ticket
        reorder._next_ticket = ticket + 1
        if hit:
            entries.move_to_end(key)
            cache.hits += 1
            # Inlined label.apply_to(packet).
            packet.hierarchy_label = hierarchy
            packet.borrow_label = label.borrow
        else:
            # The real, counted commit — LabelingFunction.label is the
            # exact code the fast handler runs — reusing the pre-walk's
            # match instead of walking the rules a second time.
            self._labeler.label(packet, matched)
            if not resolved:
                path = scheduler.path_cache.resolve(scheduler.tree, hierarchy)
            self.miss_absorbed += 1
        for node in path:  # inlined Scheduler.touch_path
            if t_walk > node.last_seen:
                node.last_seen = t_walk
        scheduler.stats.updates_skipped += n_nodes
        job = _FluidJob(packet, ticket, path)
        job.lenders = lenders
        self._live += 1
        self.absorbed += 1
        # Seqs come from the kernel counter at the same moment the real
        # path would create its resume event, so (time, seq) ordering —
        # including exact ties — matches the real interleaving.
        if self._active:
            _heappush(
                self._micro, (t2, next(self._queue._counter), self._meter_step, job)
            )
        else:
            self._materialized += 1
            self._queue.push(t2, self._run_mat, (self._meter_step, job))
        return True

    def _try_fluid_miss(self, packet):
        """The classifier's rule walk for an EMC-miss packet, without
        committing it: :meth:`_try_fluid`'s label source on a miss.

        ``Classifier.first_match`` leaves the classifier's
        ``lookups``/``misses`` counters alone; the gate's committed
        ``labeler.label`` is handed the walk's result and increments
        them exactly once, as the real worker would, without walking
        the rules again. Returns ``(label, matched)`` — the packet's
        label and ``first_match``'s result — or None when the real path
        must handle the packet.
        """
        labeler = self._labeler
        matched = labeler.classifier.first_match(packet)
        leaf_id = matched
        if leaf_id is None:
            leaf_id = labeler.default_leaf
            if leaf_id is None:
                return None  # unclassified drop: slow path handles it
        label = labeler._labels.get(leaf_id)
        if label is None:
            return None  # UnknownClassError: let the real path raise
        return label, matched

    def _lenders(self, borrow) -> list:
        """The flattened lender-leaf walk of a borrow label, memoised
        (the tree never changes shape after construction), along with
        an upper bound on the walk's worst-case duration: the real
        chain adds ``cycles(bq+update)`` once per lender with a float
        rounding per add, so ``L*step`` scaled by a generous relative
        margin (adds lose at most one ulp each) always dominates it."""
        lenders = self._lender_cache.get(borrow)
        if lenders is None:
            tree = self._scheduler.tree
            lenders = []
            for lender_id in borrow:
                lenders.extend(tree.node(lender_id).leaf_descendants())
            self._lender_cache[borrow] = lenders
            self._lender_bound[borrow] = (
                len(lenders) * self._c_borrow_won * (1.0 + 1e-9)
            )
        return lenders

    # ------------------------------------------------------------------
    # the deferred micro-queue
    # ------------------------------------------------------------------
    def _run_mat(self, fn, job) -> None:
        """A materialised micro-step executing as a kernel event (the
        wall clock IS the step's virtual time here). If the lane has
        engaged since this step was pushed, matured private steps are
        flushed first so the two lanes stay in (time, seq) order."""
        self._materialized -= 1
        now = self._sim._now
        micro = self._micro
        if micro and micro[0][0] <= now:
            self._flush(now)
        fn(now, job)

    def _flush(self, limit: float) -> None:
        """Apply every deferred step with virtual time <= *limit*, in
        (time, seq) order. Handlers may defer follow-up steps; the heap
        keeps the combined order."""
        micro = self._micro
        while micro and micro[0][0] <= limit:
            tv, _, fn, job = _heappop(micro)
            fn(tv, job)

    def _suspend(self) -> None:
        """Leave engaged mode: pending steps become kernel events at
        their virtual times (all strictly in the future — matured steps
        were flushed first), pushed in ascending order so their
        relative order is preserved."""
        self._active = False
        micro = self._micro
        if not micro:
            return
        self.suspends += 1
        push = self._queue.push
        run_mat = self._run_mat
        n = 0
        while micro:
            tv, _, fn, job = _heappop(micro)
            push(tv, run_mat, (fn, job))
            n += 1
        self._materialized += n

    def _pending_time(self) -> Optional[float]:
        micro = self._micro
        if not micro:
            return None
        return max(item[0] for item in micro)

    def _end_flush(self) -> None:
        if self._micro:
            self._flush(self._sim._now)

    # ------------------------------------------------------------------
    # micro-step handlers (``tv`` is the step's virtual wall time)
    # ------------------------------------------------------------------
    def _meter_step(self, tv: float, job: _FluidJob) -> None:
        """The merged wakeup at ``t2``: leaf meter, then verdict or the
        borrow walk (FlowValveNicApp._settle). The leaf bucket's
        refill + meter are inlined with TokenBucket's exact float
        expressions."""
        leaf = job.path[-1]
        bucket = leaf.bucket
        # Inlined params.packet_bits — same expression, same float.
        size_bits = (job.packet.size + self._overhead_bytes) * 8.0
        job.size_bits = size_bits
        tokens = bucket.tokens
        if self._continuous_refill:  # inlined bucket.refill(tv)
            dt = tv - bucket.last_refill
            if dt > 0:
                tokens = min(bucket.capacity, tokens + bucket.rate_bps * dt)
                bucket.tokens = tokens
                bucket.last_refill = tv
        if tokens >= size_bits:  # inlined bucket.meter(size_bits)
            bucket.tokens = tokens - size_bits
            bucket.greens += 1
            self._finish_forward(tv, job, None)
            return
        bucket.reds += 1
        if job.lenders:
            self._borrow_try(tv, job)
            return
        self._finish_drop(tv, job)

    def _borrow_try(self, tv: float, job: _FluidJob) -> None:
        """Probe the current lender's update trylock at ``tv`` (the
        flag-hold window starts here, exactly as in the real walk) and
        defer the post-yield settle. The trylock gate and the defer are
        inlined (ClassNode.try_begin_update, and the defer of
        :meth:`_try_fluid`) — this runs once per red packet per lender
        probed."""
        lender = job.lenders[job.idx]
        if lender.updating or tv - lender.last_update < lender.params.update_interval:
            job.won = False
            t = tv + self._c_borrow_lost
        else:
            lender.updating = True
            job.won = True
            t = tv + self._c_borrow_won
        if self._active:
            _heappush(
                self._micro, (t, next(self._queue._counter), self._borrow_settle, job)
            )
        else:
            self._materialized += 1
            self._queue.push(t, self._run_mat, (self._borrow_settle, job))

    def _borrow_settle(self, tv: float, job: _FluidJob) -> None:
        """After the borrow yield: run the won update, query the shadow
        bucket (meter inlined), and either finish or move on."""
        leaf_lender = job.lenders[job.idx]
        size_bits = job.size_bits
        if job.won:
            leaf_lender.perform_update(tv)
            leaf_lender.end_update()
            self._scheduler.stats.updates_run += 1
        shadow = leaf_lender.shadow
        tokens = shadow.tokens
        if tokens >= size_bits:  # inlined shadow.meter(size_bits)
            shadow.tokens = tokens - size_bits
            shadow.greens += 1
            leaf_lender.lent_bits += size_bits
            # scheduler.tracer is None whenever the fast path is on.
            self._finish_forward(tv, job, leaf_lender)
            return
        shadow.reds += 1
        job.idx += 1
        if job.idx < len(job.lenders):
            self._borrow_try(tv, job)
            return
        self._finish_drop(tv, job)

    # ------------------------------------------------------------------
    # completion (the worker's post-handle epilogue)
    # ------------------------------------------------------------------
    def _finish_forward(self, tv: float, job: _FluidJob, borrowed_from) -> None:
        packet = job.packet
        path = job.path
        size_bits = job.size_bits
        # Inlined Scheduler.commit(packet, path, borrowed_from,
        # size_bits=...): Γ observed here (Eq. 3 counts forwards),
        # interior buckets drained with consume()'s exact clamp.
        for node in path:
            node.gamma.observe(size_bits)
            node.forwarded_packets += 1
            node.forwarded_bits += size_bits
            if node.children:
                bucket = node.bucket
                rest = bucket.tokens - size_bits
                bucket.tokens = rest if rest > 0.0 else 0.0
        stats = self._scheduler.stats
        stats.forwarded += 1
        if borrowed_from is None:
            stats.forwarded_on_own_tokens += 1
        else:
            stats.forwarded_on_borrowed_tokens += 1
            leaf = path[-1]
            leaf.borrowed_bits += size_bits
            bkey = (leaf.classid, borrowed_from.classid)
            stats.borrow_matrix[bkey] = stats.borrow_matrix.get(bkey, 0) + 1
        stats.decisions += 1
        reorder = self._reorder
        lone = not reorder._pending
        run = reorder.release(job.ticket, packet)
        if run:
            self._egress(tv, run, lone)
        # The job is done: its conceptual worker takes queued work.
        self._live -= 1
        dispatch = self._dispatch
        if dispatch._items and dispatch._getters:
            self._job_handoff(dispatch)

    def _finish_drop(self, tv: float, job: _FluidJob) -> None:
        stats = self._scheduler.stats
        stats.dropped += 1
        stats.decisions += 1
        packet = job.packet
        packet.dropped = True  # inlined mark_dropped(SCHED_RED)
        packet.drop_reason = DropReason.SCHED_RED
        # The freed slot may unpark a run queued behind it.
        run = self._reorder.release(job.ticket, None)
        if run:
            self._egress(tv, run, False)
        # Inlined NicPipeline._drop (no tracer, no drop counters, no
        # on_drop under the fluid construction guard): count the
        # discard and return the buffer lazily at the drop's virtual
        # time.
        pipeline = self._pipeline
        pipeline.dropped += 1
        pipeline.drops_by_reason[DropReason.SCHED_RED] += 1
        buffers = self._buffers
        buffers._outstanding -= 1
        _heappush(buffers._pending, tv + buffers.recycle_delay)
        # The job is done: its conceptual worker takes queued work.
        self._live -= 1
        dispatch = self._dispatch
        if dispatch._items and dispatch._getters:
            self._job_handoff(dispatch)

    def _egress(self, tv: float, run, lone: bool) -> None:
        """Send a released *run* to the wire at virtual time *tv*.

        The pipeline's whole egress chain — ``TrafficManager.offer`` per
        frame (Tx ring accept or QUEUE_FULL drop) -> ``Link.send`` ->
        lazy sink delivery + lazy buffer return — inlined, at the
        completion's virtual time rather than the wall clock. The
        construction guard pins exactly this chain. ``offer_burst`` is
        frame-by-frame identical to ``offer``, so one loop serves both
        a lone packet and a run unparked from the reorder buffer.

        *lone* is True for a head-of-line completion with nothing
        parked, whose delivery the pipeline's own path makes with
        ``Link.send``. A run unparked from the reorder buffer leaves
        through ``Link.send_batch``, so its deliveries enter a
        ``PacketSink`` via ``receive_later``, the route that re-arms
        the sink's ``fold_interval``. A lone delivery is appended to the
        sink's pending queue directly, without that re-arm — kept so
        that kernel event counts stay as they are (DESIGN.md §7).
        """
        pipeline = self._pipeline
        ring = self._tx_ring
        starts = ring._starts
        while starts and starts[0] <= tv:  # TxRing.virtual_accept
            starts.popleft()
        depth = ring.depth
        buffers = self._buffers
        returns = buffers._pending
        recycle = buffers.recycle_delay
        tm = self._tm
        link = self._link
        rate = self._rate_bps
        prop = self._prop_delay
        sink = self._sink
        boundary = self._boundary
        direct = lone and not boundary and sink._drain_hook_registered
        for packet in run:
            if len(starts) >= depth:
                ring.tail_drops += 1
                # Inlined NicPipeline._drop(QUEUE_FULL).
                packet.dropped = True
                packet.drop_reason = DropReason.QUEUE_FULL
                pipeline.dropped += 1
                pipeline.drops_by_reason[DropReason.QUEUE_FULL] += 1
                buffers._outstanding -= 1
                _heappush(returns, tv + recycle)
                continue
            tm._frames_out += 1
            prior = link._busy_until  # Link.send(packet) at tv
            start = prior if prior > tv else tv
            finish = start + (packet.size + ETH_OVERHEAD) * 8.0 / rate
            link._busy_until = finish
            packet.tx_start = start
            link.frames_sent += 1
            link.bytes_sent += packet.size
            if boundary:
                # Cross-shard wire: inlined BoundaryOutbox.receive_later
                # — one WireRecord at the virtual arrival instant.
                sink.records.append((
                    finish + prop, packet.seq, packet.size,
                    packet.created_at, packet.app, packet.vf_index,
                ))
            elif direct:
                sink._pending.append((finish + prop, packet))
            else:
                sink.receive_later(finish + prop, packet)
            if prior > tv:  # TxRing.virtual_push(prior)
                starts.append(prior)
                occ = len(starts)
                if occ > ring.max_occupancy:
                    ring.max_occupancy = occ
            # _on_sent_at: lazy buffer return at serialisation end.
            buffers._outstanding -= 1
            _heappush(returns, finish + recycle)
            pipeline.forwarded += 1

    def _job_handoff(self, dispatch) -> None:
        """Hand a queued packet to a parked peer when a job completes.

        Only reachable in materialised mode (engaged mode keeps the
        dispatch queue empty), so the wall clock equals the finished
        job's completion time: the handoff runs exactly when the freed
        worker's ``try_get`` would."""
        item = dispatch._items.popleft()
        dispatch.total_got += 1
        getter = dispatch._getters.popleft()
        getter.succeed_now(item)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Fluid jobs between absorption and completion."""
        return self._live
