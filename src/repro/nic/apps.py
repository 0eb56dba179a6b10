"""NIC applications: the code plugged into each worker's routine.

The pipeline runs one :class:`NicApp` on every worker micro-engine.
``handle`` is a *generator*: every ``yield <seconds>`` models cycles
spent (and, in blocking lock modes, waits on a lock event), and the
generator's return value is the forwarding verdict. Workers delegate
with ``yield from``, so app time is charged inside the worker's
run-to-completion slot, exactly like plugging a scheduling function
into the Micro-C processing loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional

from ..core.labeling import LabelingFunction
from ..core.scheduling import SchedulingFunction, Verdict
from ..core.token_bucket import MeterColor
from ..net.packet import DropReason, Packet
from ..sim import At, Lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import NicPipeline

__all__ = ["NicApp", "ForwardAllApp", "FlowValveNicApp"]


class NicApp:
    """Interface for per-packet worker applications."""

    def bind(self, pipeline: "NicPipeline") -> None:
        """Called once when attached; gives access to clock and costs."""
        self.pipeline = pipeline

    def handle(self, packet: Packet) -> Generator:
        """Process one packet; yield time costs; return a Verdict."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator function

    def fast_handler(self) -> Optional[Callable[[Packet], Generator]]:
        """A single-wakeup replacement for the worker's ``fixed
        overhead + handle()`` sequence, or None when the app (or its
        configuration) has no semantically-identical fast form.

        Contract: the returned generator charges the pipeline's fixed
        overhead itself (its first yield covers it) and resumes at
        bit-identical absolute times to the slow sequence.
        """
        return None


class ForwardAllApp(NicApp):
    """Pass-through: the NIC with FlowValve disabled (§V-B's baseline
    used to establish the 161 µs forwarding floor)."""

    def handle(self, packet: Packet) -> Generator:
        return Verdict.FORWARD
        yield  # pragma: no cover - generator marker


class FlowValveNicApp(NicApp):
    """FlowValve's labeling + scheduling functions with cycle costs.

    Parameters
    ----------
    labeler / scheduler: the back-end objects built by the front end
        (:class:`~repro.core.frontend.FlowValveFrontend`). They are
        shared state — exactly like the scheduling tree in NFP shared
        memory — so one app instance serves all workers.
    """

    def __init__(self, labeler: LabelingFunction, scheduler: SchedulingFunction):
        self.labeler = labeler
        self.scheduler = scheduler
        #: Per-class blocking locks (created lazily per lock mode).
        self._class_locks: Dict[str, Lock] = {}
        self._global_lock: Optional[Lock] = None
        #: cycle-count → seconds memo. Handle() converts a handful of
        #: distinct cycle budgets on every packet; the conversion must
        #: stay ``config.seconds(n)`` (same division, bit-identical
        #: floats), so cache its results rather than precompute a
        #: seconds-per-cycle factor.
        self._cycles_cache: Dict[int, float] = {}

    def bind(self, pipeline: "NicPipeline") -> None:
        super().bind(pipeline)
        if pipeline.config.lock_mode in ("global_block", "sequential"):
            self._global_lock = Lock(pipeline.sim, name="sched-tree-global")
        # Thread the simulator's observability sinks through the shared
        # scheduling objects (no-ops detach, keeping the hot path bare).
        self.scheduler.attach_tracer(pipeline.sim.tracer)
        self.scheduler.tree.register_metrics(pipeline.sim.metrics)

    # ------------------------------------------------------------------
    def _cycles(self, n: int) -> float:
        cache = self._cycles_cache
        sec = cache.get(n)
        if sec is None:
            sec = cache[n] = self.pipeline.config.seconds(n)
        return sec

    def _class_lock(self, classid: str) -> Lock:
        lock = self._class_locks.get(classid)
        if lock is None:
            lock = Lock(self.pipeline.sim, name=f"class-{classid}")
            self._class_locks[classid] = lock
        return lock

    @property
    def lock_contention(self) -> float:
        """Total simulated seconds workers spent waiting on blocking
        locks (0 in trylock mode, where nobody ever waits)."""
        total = sum(lock.total_wait_time for lock in self._class_locks.values())
        if self._global_lock is not None:
            total += self._global_lock.total_wait_time
        return total

    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> Generator:
        """Label *packet*, then run Algorithm 1 under the configured
        lock discipline (Fig. 7):

        * ``trylock`` — FlowValve's design: a worker that loses a
          class's update flag skips straight on;
        * ``per_class_block`` — Fig. 7(c): each class's update attempt
          waits on that class's lock;
        * ``global_block`` — the naive offload: one lock guards the
          whole update walk;
        * ``sequential`` — Fig. 7(b): one lock serialises the whole
          decision.

        Cycle costs of skipped attempts accumulate into one yield
        (fewer kernel events, identical total time); a won update
        charges its body while the flag is held — that hold window is
        what makes other workers skip, the paper's "only one core
        executes this procedure at a time". The walk and the meter
        charge are inline, so their trylock yields resume through two
        generator frames; :meth:`_settle` finishes the decision.
        """
        pipeline = self.pipeline
        sim = pipeline.sim
        config = pipeline.config
        costs = config.costs
        lock_mode = config.lock_mode
        cycles = self._cycles
        cyc = self._cycles_cache  # inline _cycles: ~4 lookups per packet

        # --- labeling function ---------------------------------------
        labeler = self.labeler
        cache = labeler.cache
        hits_before = cache.hits
        label = labeler.label(packet)
        if label is None:
            return Verdict.DROP
        if cache.hits > hits_before:
            yield cycles(costs.emc_hit)
        else:
            yield cycles(
                costs.emc_hit + costs.classify_per_rule * max(1, len(labeler.classifier))
            )

        # --- scheduling function (Algorithm 1) ------------------------
        scheduler = self.scheduler
        stats = scheduler.stats
        path = scheduler.path_nodes(packet)
        # sim._now (not the .now property): this generator reads the
        # clock several times per packet between yields.
        scheduler.touch_path(path, sim._now)
        blocking = lock_mode == "per_class_block"
        per_class = costs.sched_per_class
        trylock_cost = costs.update_trylock
        update_body = costs.update_body
        # Held over the update walk (global_block) or the whole decision
        # (sequential); the finally releases it if the decision raises,
        # which fails only this worker's process, not the run.
        global_lock = self._global_lock
        if global_lock is not None:
            yield global_lock.acquire()
        try:
            accumulated = 0
            for node in path:
                accumulated += per_class
                if blocking:
                    # The lock acquire itself is an atomic probe, same
                    # cost as the trylock path's.
                    yield cycles(accumulated + trylock_cost)
                    accumulated = 0
                    lock = self._class_lock(node.classid)
                    yield lock.acquire()
                    try:
                        if node.try_begin_update(sim._now):
                            yield cycles(update_body)
                            node.perform_update(sim._now)
                            node.end_update()
                            stats.updates_run += 1
                        else:
                            stats.updates_skipped += 1
                    finally:
                        lock.release()
                elif node.try_begin_update(sim._now):
                    n = accumulated + update_body
                    sec = cyc.get(n)
                    yield sec if sec is not None else cycles(n)
                    accumulated = 0
                    node.perform_update(sim._now)
                    node.end_update()
                    stats.updates_run += 1
                else:
                    accumulated += trylock_cost
                    stats.updates_skipped += 1
            if accumulated:
                sec = cyc.get(accumulated)
                yield sec if sec is not None else cycles(accumulated)
            if lock_mode == "global_block":
                global_lock.release()
                global_lock = None
            sec = cyc.get(costs.meter)
            yield sec if sec is not None else cycles(costs.meter)
            verdict = yield from self._settle(packet, path)
        finally:
            if global_lock is not None:
                global_lock.release()
        return verdict

    def fast_handler(self) -> Optional[Callable[[Packet], Generator]]:
        """Fast form exists only for trylock — the blocking modes need
        true lock interleaving between workers."""
        if self.pipeline.config.lock_mode == "trylock":
            return self.handle_fast
        return None

    def handle_fast(self, packet: Packet) -> Generator:
        """The trylock ``handle`` path with its fixed-cost yields
        pre-aggregated (DESIGN.md §7).

        Replaces the worker's four-plus wakeups per packet (fixed
        overhead, EMC, trailing skip-cost, meter) with two, while
        keeping every shared-state operation at the exact wall time the
        multi-yield path performs it:

        * the labeler runs at the *virtual* timestamp ``now + fixed
          overhead``; only worker chains touch labeler state and the
          constant shift preserves their relative order, so hit/miss
          outcomes and cache evolution are unchanged;
        * the first resume lands at ``(now + overhead) + emc`` —
          accumulated term by term on a virtual clock and yielded as
          an absolute :class:`~repro.sim.At` target, so the timestamp
          is bit-identical to the slow path's chained resumes;
        * update-epoch wins and borrow queries still yield for real:
          their flag-hold windows are what other workers observe;
        * the trailing skip-cost and the meter charge merge into one
          resume — the slow path performs no shared-state operation
          between those two wakeups, so the merge is exact.
        """
        pipeline = self.pipeline
        sim = pipeline.sim
        costs = pipeline.config.costs
        cycles = self._cycles
        cyc = self._cycles_cache

        # --- labeling function, at virtual time now+fixed_overhead ----
        labeler = self.labeler
        cache = labeler.cache
        hits_before = cache.hits
        t = sim._now + cycles(costs.fixed_overhead)
        label = labeler.label(packet)
        if label is None:
            # The worker still pays the fixed overhead before dropping.
            yield At(t)
            return Verdict.DROP
        if cache.hits > hits_before:
            t += cycles(costs.emc_hit)
        else:
            t += cycles(
                costs.emc_hit + costs.classify_per_rule * max(1, len(labeler.classifier))
            )
        at = At(t)

        # --- scheduling function (Algorithm 1), at real wall times ----
        scheduler = self.scheduler
        path = scheduler.path_nodes(packet)
        stats = scheduler.stats
        params = scheduler.params
        per_class = costs.sched_per_class
        trylock_cost = costs.update_trylock

        # Wakeup elision (DESIGN.md §7): the slow sequence wakes at the
        # first resume time ``t``, probes every path node's update
        # trylock (all at wall time ``t``) and touches the path at
        # ``t``. When, judged with current state, every path node (a)
        # is not mid-update, (b) cannot be due for an update at ``t``
        # (``t - last_update < update_interval`` — and last_update only
        # grows, so no probe between now and ``t`` can begin one
        # either), and (c) stays active through ``t`` under its current
        # last_seen, the walk is provably skip-only and its only write
        # is ``touch_path(path, t)`` — which, done *early* at wall-now
        # with the same timestamp ``t``, is unobservable: last_seen has
        # max() semantics and (c) guarantees every ``is_active`` read
        # in (now, t] answers True in both orders. The first wakeup
        # then merges into the second (skip-cost + meter) resume.
        interval = params.update_interval
        expire = params.expire_after
        elide = True
        for node in path:
            if (
                node.updating
                or t - node.last_update >= interval
                or t - node.last_seen > expire
            ):
                elide = False
                break
        if elide:
            n_nodes = len(path)
            n = n_nodes * (per_class + trylock_cost)
            t2 = t
            sec = cyc.get(n)
            t2 += sec if sec is not None else cycles(n)
            sec = cyc.get(costs.meter)
            t2 += sec if sec is not None else cycles(costs.meter)
            # Horizon cut: the slow sequence counts its skips (and
            # touches the path) at the *first* wakeup; eliding performs
            # them now. Both land inside a finished run iff the merged
            # wakeup does — a train cut by the run horizon must keep
            # the slow wakeups so end-of-run state matches exactly.
            if t2 > sim._horizon:
                elide = False
        if elide:
            scheduler.touch_path(path, t)
            stats.updates_skipped += n_nodes
            at.time = t2
            yield at
        else:
            yield at
            scheduler.touch_path(path, sim._now)
            update_body = costs.update_body
            accumulated = 0
            for node in path:
                accumulated += per_class
                if node.try_begin_update(sim._now):
                    n = accumulated + update_body
                    sec = cyc.get(n)
                    yield sec if sec is not None else cycles(n)
                    accumulated = 0
                    node.perform_update(sim._now)
                    node.end_update()
                    stats.updates_run += 1
                else:
                    accumulated += trylock_cost
                    stats.updates_skipped += 1
            t = sim._now
            if accumulated:
                sec = cyc.get(accumulated)
                t += sec if sec is not None else cycles(accumulated)
            sec = cyc.get(costs.meter)
            t += sec if sec is not None else cycles(costs.meter)
            at.time = t
            yield at
        verdict = yield from self._settle(packet, path)
        return verdict

    def _settle(self, packet: Packet, path) -> Generator:
        """Algorithm 1 after the meter charge, at the current wall time:
        the leaf meter, then for a red packet the borrowing walk over
        its lenders' shadow buckets in label order, then the verdict.

        Querying a lender runs the lender's gated update ("the
        borrowing procedure is simply another practice of the
        rate-limiting process", Fig. 8) and yields for real, so other
        workers see a won update flag held.
        """
        sim = self.pipeline.sim
        scheduler = self.scheduler
        stats = scheduler.stats
        params = scheduler.params
        leaf = path[-1]
        size_bits = params.packet_bits(packet.size)
        if params.continuous_refill:
            leaf.bucket.refill(sim._now)
        if leaf.bucket.meter(size_bits) is MeterColor.GREEN:
            scheduler.commit(packet, path, None, size_bits=size_bits)
            stats.decisions += 1
            return Verdict.FORWARD
        costs = self.pipeline.config.costs
        cycles = self._cycles
        for lender_id in packet.borrow_label:
            for lender in scheduler.tree.node(lender_id).leaf_descendants():
                if lender.try_begin_update(sim._now):
                    yield cycles(costs.borrow_query + costs.update_body)
                    lender.perform_update(sim._now)
                    lender.end_update()
                    stats.updates_run += 1
                else:
                    yield cycles(costs.borrow_query)
                if lender.shadow.meter(size_bits) is MeterColor.GREEN:
                    lender.lent_bits += size_bits
                    if scheduler.tracer is not None:
                        scheduler.tracer.emit(
                            sim._now, "core.sched", "borrow",
                            borrower=leaf.classid, lender=lender.classid,
                            bits=size_bits,
                        )
                    scheduler.commit(packet, path, lender, size_bits=size_bits)
                    stats.decisions += 1
                    return Verdict.FORWARD
        stats.dropped += 1
        stats.decisions += 1
        packet.mark_dropped(DropReason.SCHED_RED)
        return Verdict.DROP
