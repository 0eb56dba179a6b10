"""The scheduling function — Algorithm 1 of the paper.

For each packet, walk its hierarchy class label root-to-leaf:

1. per class, *try* to grab the update lock; the winner refreshes the
   token bucket (replenish at the recomputed θ, roll Γ, publish the
   lendable rate) and releases — losers skip straight on (this is what
   keeps the function parallel across cores);
2. meter the packet against the **leaf** bucket: green → forward;
3. red → the borrowing subprocedure: query the shadow bucket of each
   lender in the packet's borrowing class label; the first green
   forwards the packet on borrowed tokens;
4. otherwise → DROP. This is FlowValve's *specialized tail drop*: the
   packet that a hypothetical shaper would have had to queue past its
   class's bandwidth share is discarded before it can occupy the
   shared Tx buffer.

The class is written so the same object can run in two modes:

* **software mode** — call :meth:`decide` (all steps, synchronously);
  used by unit tests and the software-reference scheduler;
* **embedded mode** — the NIC app
  (:class:`~repro.nic.apps.FlowValveNicApp`) calls :meth:`path_nodes`,
  :meth:`touch_path` and :meth:`commit` and runs the update and borrow
  walks itself, so it can charge per-step cycle costs and model the
  update flag being *held* across simulated time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.packet import DropReason, Packet
from .flow_cache import PathCache
from .sched_tree import ClassNode, SchedulingParams, SchedulingTree
from .token_bucket import MeterColor

__all__ = ["Verdict", "SchedulingFunction", "SchedulingParams", "SchedulingStats"]


class Verdict(enum.Enum):
    """Algorithm 1's output."""

    FORWARD = "forward"
    DROP = "drop"


@dataclass
class SchedulingStats:
    """Lifetime counters of one scheduling-function instance."""

    decisions: int = 0
    forwarded: int = 0
    dropped: int = 0
    forwarded_on_own_tokens: int = 0
    forwarded_on_borrowed_tokens: int = 0
    updates_run: int = 0
    updates_skipped: int = 0
    #: Forwards on borrowed tokens, keyed by (borrower, lender).
    borrow_matrix: Dict[Tuple[str, str], int] = field(default_factory=dict)


class SchedulingFunction:
    """Executable form of Algorithm 1 over a scheduling tree."""

    def __init__(self, tree: SchedulingTree):
        self.tree = tree
        self.params: SchedulingParams = tree.params
        self.stats = SchedulingStats()
        #: Label-tuple → node-path memo (one entry per leaf class).
        self.path_cache = PathCache()
        #: Enabled tracer or None (see :meth:`attach_tracer`).
        self.tracer = None

    def attach_tracer(self, tracer) -> None:
        """Wire *tracer* into this function and its scheduling tree.

        Disabled tracers detach (store ``None``), so every emission
        site stays a single identity check when observability is off.
        """
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.tree.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # granular steps (embedded mode)
    # ------------------------------------------------------------------
    def path_nodes(self, packet: Packet) -> List[ClassNode]:
        """Resolve the packet's hierarchy label to tree nodes.

        Memoised per label via :class:`~repro.core.flow_cache.PathCache`
        — the dominant per-packet cost of the walk was the repeated
        id → node dict lookups. The returned list is shared; callers
        must not mutate it.
        """
        label = packet.hierarchy_label
        path = self.path_cache.entries.get(label)
        if path is None:
            path = self.path_cache.resolve(self.tree, label)
        return path

    def touch_path(self, path: List[ClassNode], now: float) -> None:
        """Record arrival activity on every class of the path (offered
        packets keep a class active even when all of them are red)."""
        for node in path:  # inlined ClassNode.touch — per-packet hot
            if now > node.last_seen:
                node.last_seen = now

    def update_step(self, node: ClassNode, now: float) -> bool:
        """One loop iteration's lock attempt + update (lines 1-4).

        Returns True when this caller ran the update. In embedded mode
        the NIC worker splits this further to hold the flag across
        simulated update-execution time; see
        :meth:`~repro.core.sched_tree.ClassNode.try_begin_update`.
        """
        if node.try_begin_update(now):
            try:
                node.perform_update(now)
            finally:
                node.end_update()
            self.stats.updates_run += 1
            return True
        self.stats.updates_skipped += 1
        return False

    def borrow(self, packet: Packet, now: float, size_bits: Optional[float] = None) -> Optional[ClassNode]:
        """Lines 9-15: query lender shadow buckets in label order.

        Returns the lender that granted tokens, or ``None``.
        """
        if size_bits is None:
            size_bits = self.params.packet_bits(packet.size)
        for lender_id in packet.borrow_label:
            lender = self.tree.node(lender_id)
            # An interior lender stands for its subtree: query its leaf
            # descendants' shadows (see ClassNode.leaf_descendants).
            for leaf_lender in lender.leaf_descendants():
                # "The borrowing procedure is simply another practice of
                # the rate-limiting process" (Fig. 8): the query itself
                # triggers the lender's gated update, so an *idle*
                # lender's shadow keeps replenishing from borrowers'
                # packet events.
                self.update_step(leaf_lender, now)
                if leaf_lender.shadow.meter(size_bits) is MeterColor.GREEN:
                    leaf_lender.lent_bits += size_bits
                    if self.tracer is not None:
                        self.tracer.emit(
                            now, "core.sched", "borrow",
                            borrower=packet.hierarchy_label[-1],
                            lender=leaf_lender.classid,
                            bits=size_bits,
                        )
                    return leaf_lender
        return None

    def commit(
        self,
        packet: Packet,
        path: List[ClassNode],
        borrowed_from: Optional[ClassNode],
        size_bits: Optional[float] = None,
    ) -> None:
        """Account a FORWARD: add the packet's tokens to Γ of every
        class on its path (Eq. 3 counts forwarded packets), and drain
        root/interior buckets — they "use tokens to measure flow
        rate", and that drain is what determines the unconsumed excess
        their next update transfers to the shadow bucket (Fig. 9:
        Γ_S2 = Γ_ML, so S2's lendable part already excludes ML's use).
        """
        if size_bits is None:
            size_bits = self.params.packet_bits(packet.size)
        for node in path:
            node.count_forwarded(size_bits)
            if node.children:
                node.bucket.consume(size_bits)
        stats = self.stats
        stats.forwarded += 1
        if borrowed_from is None:
            stats.forwarded_on_own_tokens += 1
        else:
            stats.forwarded_on_borrowed_tokens += 1
            leaf = path[-1]
            leaf.borrowed_bits += size_bits
            key = (leaf.classid, borrowed_from.classid)
            stats.borrow_matrix[key] = stats.borrow_matrix.get(key, 0) + 1

    # ------------------------------------------------------------------
    # software mode
    # ------------------------------------------------------------------
    def decide(self, packet: Packet, now: float) -> Verdict:
        """Run Algorithm 1 start to finish and return the verdict.

        The packet must already carry its QoS labels (see
        :class:`~repro.core.labeling.LabelingFunction`).
        """
        self.stats.decisions += 1
        params = self.params
        path = self.path_nodes(packet)
        self.touch_path(path, now)
        size_bits = params.packet_bits(packet.size)
        update_step = self.update_step
        for node in path:
            update_step(node, now)
        leaf = path[-1]
        if params.continuous_refill:
            leaf.bucket.refill(now)
        color = leaf.bucket.meter(size_bits)
        borrowed_from: Optional[ClassNode] = None
        if color is not MeterColor.GREEN:
            borrowed_from = self.borrow(packet, now, size_bits)
            if borrowed_from is None:
                self.stats.dropped += 1
                packet.mark_dropped(DropReason.SCHED_RED)
                if self.tracer is not None:
                    self.tracer.emit(
                        now, "core.sched", "drop",
                        reason=DropReason.SCHED_RED.value,
                        classid=leaf.classid, app=packet.app, size=packet.size,
                    )
                return Verdict.DROP
        self.commit(packet, path, borrowed_from, size_bits=size_bits)
        return Verdict.FORWARD

    # ------------------------------------------------------------------
    @property
    def drop_ratio(self) -> float:
        """Dropped over decided, 0.0 before any decision."""
        if self.stats.decisions == 0:
            return 0.0
        return self.stats.dropped / self.stats.decisions
