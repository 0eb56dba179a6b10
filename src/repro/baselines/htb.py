"""Hierarchy Token Bucket, kernel-style.

Implements ``tc-htb``'s documented behaviour (paper §III-A): each
class runs two token buckets — ``tokens`` against its assured *rate*
(burst) and ``ctokens`` against its *ceil* (cburst). A leaf may send
while it has rate tokens; once out, it may *borrow* from the closest
ancestor that still has rate tokens, provided every hop on the way is
within its ceiling. Leaves that can send are served by
deficit-round-robin with kernel-style quanta (``rate/8/r2q`` bytes,
capped at 200 000 — the cap is the source of the well-known coarse
sharing at multi-gigabit rates).

Two deliberate fidelity choices, matching what the paper *observed*
rather than what the man page promises:

* sibling ``prio`` does not influence borrowing order (Fig. 3's third
  artifact: HTB "ignores our priority setting between KVS and ML" and
  splits them equally — quantum-weighted DRR does exactly that);
* token refills honour a ``refill_inflation`` factor that the kernel
  runtime raises under qdisc-lock contention, reproducing the ceiling
  overshoot of Fig. 3's second artifact (≈12 Gbit through a 10 Gbit
  root). The mechanism (stale timestamps + batched dequeues under the
  global lock) is from [23]; the magnitude is calibrated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import PolicyError
from ..net.packet import DropReason, Packet
from ..tc.ast import PolicyConfig
from ..tc.classifier import Classifier
from ..units import bits
from .qdisc_base import LeafQueue, Qdisc

__all__ = ["HtbClass", "HtbQdisc"]

#: Kernel default rate-to-quantum divisor.
R2Q = 10
#: Kernel warning threshold; quanta are capped here ("quantum of
#: 200000 is big").
QUANTUM_CAP_BYTES = 200_000
#: Default burst: enough for ~10 ms at the class rate, floor one MTU.
BURST_SECONDS = 0.01


class HtbClass:
    """One HTB class: rate/ceil buckets plus (for leaves) a queue."""

    def __init__(
        self,
        classid: str,
        rate_bps: float,
        ceil_bps: Optional[float] = None,
        parent: Optional["HtbClass"] = None,
        queue_limit: int = 1000,
        burst_seconds: float = BURST_SECONDS,
    ):
        if rate_bps <= 0:
            raise PolicyError(f"HTB class {classid}: rate must be positive")
        self.classid = classid
        self.rate = rate_bps
        self.ceil = ceil_bps if ceil_bps is not None else rate_bps
        if self.ceil < self.rate:
            raise PolicyError(f"HTB class {classid}: ceil below rate")
        self.parent = parent
        self.children: List[HtbClass] = []
        if parent is not None:
            parent.children.append(self)
        self.burst = max(self.rate * burst_seconds, 12_336.0)
        self.cburst = max(self.ceil * burst_seconds, 12_336.0)
        self.tokens = self.burst
        self.ctokens = self.cburst
        self.last_update = 0.0
        self.queue = LeafQueue(queue_limit)
        quantum_bytes = min(QUANTUM_CAP_BYTES, max(1514.0, self.rate / 8.0 / R2Q))
        #: DRR quantum in bits.
        self.quantum = quantum_bytes * 8.0
        self.deficit = 0.0
        # --- statistics ----------------------------------------------
        self.sent_packets = 0
        self.sent_bits = 0.0
        self.borrowed_packets = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    # ------------------------------------------------------------------
    def refill(self, now: float, inflation: float = 1.0) -> None:
        """Lazily accrue both buckets up to *now*.

        ``inflation`` > 1 models the kernel artifacts described in the
        module docstring: each elapsed interval is over-credited by
        that factor.
        """
        dt = (now - self.last_update) * inflation
        if dt <= 0:
            return
        self.tokens = min(self.burst, self.tokens + self.rate * dt)
        self.ctokens = min(self.cburst, self.ctokens + self.ceil * dt)
        self.last_update = now

    def mode(self) -> str:
        """Kernel HTB colour: CAN_SEND / MAY_BORROW / CANT_SEND."""
        if self.ctokens <= 0:
            return "CANT_SEND"
        if self.tokens > 0:
            return "CAN_SEND"
        return "MAY_BORROW"

    def charge(self, size_bits: float) -> None:
        """Subtract one packet's bits from both buckets.

        Debt may grow arbitrarily negative (the kernel clamps tokens
        only on the positive side, at the burst): clamping debt would
        *forgive* part of every packet whenever the burst is small
        relative to the frame size, silently inflating the class rate.
        """
        self.tokens -= size_bits
        self.ctokens -= size_bits

    def rate_recovery(self, now: float) -> float:
        """When the rate bucket next goes positive (now if it already is)."""
        if self.tokens > 0:
            return now
        return now + (-self.tokens + 1.0) / self.rate

    def ceil_recovery(self, now: float) -> float:
        """When the ceil bucket next goes positive (now if it already is)."""
        if self.ctokens > 0:
            return now
        return now + (-self.ctokens + 1.0) / self.ceil


class HtbQdisc(Qdisc):
    """The qdisc: classifier + class tree + DRR dequeue."""

    def __init__(
        self,
        root: HtbClass,
        classifier: Optional[Classifier] = None,
        default_class: Optional[str] = None,
        queue_limit: int = 1000,
    ):
        self.root = root
        self.classifier = classifier if classifier is not None else Classifier()
        self.default_class = default_class
        self._classes: Dict[str, HtbClass] = {}
        self._index(root)
        self._leaves: List[HtbClass] = [c for c in self._classes.values() if c.is_leaf]
        self._rr_cursor = 0
        self._fresh_turn = True
        #: Raised by the kernel runtime under lock contention.
        self.refill_inflation = 1.0
        self.unclassified_drops = 0
        for leaf in self._leaves:
            leaf.queue.limit = queue_limit

    def _index(self, node: HtbClass) -> None:
        if node.classid in self._classes:
            raise PolicyError(f"duplicate HTB class {node.classid}")
        self._classes[node.classid] = node
        for child in node.children:
            self._index(child)

    # ------------------------------------------------------------------
    @classmethod
    def from_policy(
        cls,
        policy: PolicyConfig,
        queue_limit: int = 1000,
    ) -> "HtbQdisc":
        """Build the class tree + classifier from a tc policy."""
        qdisc_spec = policy.root_qdisc()
        top = policy.children_of(qdisc_spec.handle)
        if len(top) != 1:
            raise PolicyError("HTB needs exactly one top class")
        spec_map = {}

        def build(spec, parent):
            node = HtbClass(
                spec.classid,
                rate_bps=spec.rate if spec.rate > 0 else (spec.ceil or 1e9),
                ceil_bps=spec.ceil,
                parent=parent,
                queue_limit=queue_limit,
            )
            spec_map[spec.classid] = node
            for child_spec in policy.children_of(spec.classid):
                build(child_spec, node)
            return node

        root = build(top[0], None)
        default = None
        if qdisc_spec.default:
            major, _ = top[0].classid.split(":")
            default = f"{major}:{qdisc_spec.default:x}"
        return cls(root, Classifier(policy.filters), default_class=default, queue_limit=queue_limit)

    # ------------------------------------------------------------------
    def leaf_for(self, packet: Packet) -> Optional[HtbClass]:
        flowid = self.classifier.classify(packet) if len(self.classifier) else None
        if flowid is None:
            flowid = self.default_class
        if flowid is None:
            return None
        node = self._classes.get(flowid)
        if node is None or not node.is_leaf:
            return None
        return node

    def enqueue(self, packet: Packet, now: float) -> bool:
        leaf = self.leaf_for(packet)
        if leaf is None:
            self.unclassified_drops += 1
            packet.mark_dropped(DropReason.UNCLASSIFIED)
            return False
        return leaf.queue.push(packet)

    # ------------------------------------------------------------------
    def _refill_all(self, now: float) -> None:
        for node in self._classes.values():
            node.refill(now, self.refill_inflation)

    def _lender_for(self, leaf: HtbClass) -> Optional[HtbClass]:
        """The class whose rate tokens this leaf would consume, or
        ``None`` when the leaf can't send at all.

        Walk up from the leaf: the first CAN_SEND class lends; any
        CANT_SEND class on the way blocks (its ceiling binds).
        """
        node: Optional[HtbClass] = leaf
        while node is not None:
            mode = node.mode()
            if mode == "CANT_SEND":
                return None
            if mode == "CAN_SEND":
                return node
            node = node.parent
        return None

    def _advance_turn(self) -> None:
        self._rr_cursor += 1
        self._fresh_turn = True

    def dequeue(self, now: float) -> Optional[Packet]:
        self._refill_all(now)
        n = len(self._leaves)
        if n == 0:
            return None
        # Classic deficit round robin: a leaf's *turn* starts with one
        # quantum top-up, and the leaf keeps being served across
        # dequeue calls until its deficit (or tokens, or queue) runs
        # out — that is what makes long-run shares proportional to the
        # quanta. (A serve-one-then-rotate loop degrades to plain
        # round robin.)
        for _ in range(2 * n + 1):
            leaf = self._leaves[self._rr_cursor % n]
            if self._fresh_turn:
                leaf.deficit += leaf.quantum
                self._fresh_turn = False
            packet = leaf.queue.peek()
            if packet is None:
                leaf.deficit = 0.0  # an empty queue forfeits its turn
                self._advance_turn()
                continue
            lender = self._lender_for(leaf)
            if lender is None:
                self._advance_turn()  # token-blocked; deficit carries
                continue
            size_bits = bits(packet.size)
            if leaf.deficit < size_bits:
                self._advance_turn()
                continue
            leaf.deficit -= size_bits
            leaf.queue.pop()
            # Kernel htb_charge_class walks the WHOLE ancestry: every
            # level's buckets account every packet, so a parent's rate
            # bounds its subtree's total (assured + borrowed) and the
            # root ceiling genuinely caps the hierarchy. (Charging only
            # up to the lender lets assured traffic bypass the root
            # bucket and oversubscribe it.)
            node: Optional[HtbClass] = leaf
            while node is not None:
                node.charge(size_bits)
                node = node.parent
            leaf.sent_packets += 1
            leaf.sent_bits += size_bits
            if lender is not leaf:
                leaf.borrowed_packets += 1
            return packet
        return None

    def _leaf_ready_time(self, leaf: HtbClass, now: float) -> float:
        """Earliest time a blocked *leaf* could send again.

        Two independent constraints must clear: every ceiling on the
        path that is in debt (ceilings bind absolutely), and token
        availability — either the leaf's own rate bucket or *some*
        ancestor's (a lender). A leaf deep in rate-bucket debt but
        under its ceiling wakes as soon as a lender has tokens, not
        when its own debt clears — that is exactly what borrowing is.
        """
        t_ceil = now
        node: Optional[HtbClass] = leaf
        while node is not None:
            t_ceil = max(t_ceil, node.ceil_recovery(now))
            node = node.parent
        t_lend = float("inf")
        node = leaf
        while node is not None:
            t_lend = min(t_lend, node.rate_recovery(now))
            node = node.parent
        return max(t_ceil, t_lend)

    def next_ready_time(self, now: float) -> Optional[float]:
        if self.backlog == 0:
            return None
        earliest: Optional[float] = None
        for leaf in self._leaves:
            if not len(leaf.queue):
                continue
            if self._lender_for(leaf) is not None:
                return now
            t = self._leaf_ready_time(leaf, now)
            earliest = t if earliest is None else min(earliest, t)
        if earliest is None or earliest <= now:
            return now + 1e-4
        return earliest

    @property
    def backlog(self) -> int:
        return sum(len(leaf.queue) for leaf in self._leaves)
