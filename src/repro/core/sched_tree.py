"""The scheduling tree (paper §IV-B) and its per-class update logic.

Each :class:`ClassNode` owns the operating state of one traffic class:

* a regular token bucket — the *leaf* uses it to limit flow rate, the
  root/interior classes use theirs to measure (the forwarding decision
  only meters at the leaf);
* a shadow bucket holding the class's unconsumed token rate for
  lenders (Eq. 6);
* a consumption counter Γ (Eq. 3), rolled at every update epoch;
* the condition template (:mod:`.rate_rules`) that recomputes θ;
* timestamps for the expired-status removal of Subprocedure 3;
* an ``updating`` flag — the per-class update *try-lock*: in a
  multi-core environment only one core executes the update procedure
  at a time, the others skip straight to the meter (Fig. 8 and the
  paper's discussion under Algorithm 1).

:class:`SchedulingTree` builds the node graph from a validated
:class:`~repro.tc.PolicyConfig` and provides id lookup for the
scheduling function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..errors import PolicyError, UnknownClassError
from ..stats.rates import WindowedRate
from ..tc.ast import ClassSpec, PolicyConfig
from .rate_rules import RateRule, RuleContext, derive_rule
from .token_bucket import TokenBucket

__all__ = ["SchedulingParams", "ClassNode", "SchedulingTree"]


@dataclass(frozen=True)
class SchedulingParams:
    """Tunables of the scheduling function.

    Attributes
    ----------
    update_interval:
        Minimum seconds between two update epochs of one class (the
        paper's ΔT lower bound; updates are packet-triggered so the
        actual ΔT is ≥ this).
    expire_after:
        Idle time after which a class's status (Γ, counters) is
        restored to its initial value — Subprocedure 3. Defaults to
        ten update intervals.
    burst_intervals:
        Bucket capacity in units of ``θ × update_interval``; 2 gives a
        class one full missed epoch of slack.
    min_burst_bits:
        Capacity floor so tiny rates can still pass an MTU frame.
    overhead_bytes:
        Per-frame wire overhead (preamble + inter-frame gap, 20 B)
        charged by the meter on top of the L2 size. Without it, token
        grants at the configured link rate exceed what the wire can
        carry by the framing overhead, and the excess parks in (and
        eventually overflows) the shared Tx ring — FIFO drops that hit
        arbitrary classes instead of FlowValve's chosen ones. Set to 0
        to account pure L2 bits.
    link_headroom:
        Fraction of the root rate deliberately *not* granted. With
        zero headroom, admission equals the wire rate exactly and any
        transient burst creates a standing Tx-ring queue that can
        never drain (arrival == service is a neutral equilibrium);
        a few percent of slack lets the FIFO empty between bursts, so
        drops stay FlowValve's *chosen* drops instead of random FIFO
        tail drops.
    continuous_refill:
        True (default) models the NFP hardware meter instruction,
        which accrues tokens continuously at its configured rate — the
        update epoch only *re-rates* it. False replays the paper's
        Fig. 8 text literally: tokens land in one ΔT×θ lump at each
        update, which makes admission bursty at epoch scale (an
        ablation knob; at hardware epoch lengths the difference is
        invisible, at rate-scaled epoch lengths it matters).
    gamma_alpha:
        EWMA weight applied to Γ across epochs (1.0 = no smoothing,
        the paper's literal per-interval measurement). At hardware
        scale one ΔT holds thousands of packets, so TCP's sawtooth is
        invisible in Γ; a rate-scaled epoch holds only tens, and raw
        per-epoch Γ dips make residual rules (θ_low = θ_parent − Γ_high)
        transiently over-grant — a sustained feedback loop. Smoothing
        restores the timescale separation the hardware has naturally.
    """

    update_interval: float = 0.001
    expire_after: float = 0.01
    burst_intervals: float = 2.0
    min_burst_bits: float = 2 * 12_336.0
    overhead_bytes: int = 20
    link_headroom: float = 0.03
    continuous_refill: bool = True
    gamma_alpha: float = 0.4
    #: Per-epoch decay of the peak-hold Γ estimator (see ClassNode
    #: ``gamma_peak``); 0 disables peak-holding entirely.
    gamma_peak_decay: float = 0.85

    def __post_init__(self) -> None:
        if self.update_interval <= 0:
            raise PolicyError("update_interval must be positive")
        if self.expire_after < self.update_interval:
            raise PolicyError("expire_after must be >= update_interval")

    @classmethod
    def scaled(cls, factor: float, **overrides) -> "SchedulingParams":
        """Params for a rate-scaled experiment: time constants stretch
        by *factor* so that (rate × interval) products — and therefore
        every convergence dynamic — are invariant."""
        base = cls(**overrides)
        return replace(
            base,
            update_interval=base.update_interval * factor,
            expire_after=base.expire_after * factor,
        )

    def packet_bits(self, size_bytes: int) -> float:
        """Tokens one frame consumes: L2 bits plus wire overhead."""
        return (size_bytes + self.overhead_bytes) * 8.0


class ClassNode:
    """One traffic class: configuration + runtime scheduling state."""

    __slots__ = (
        "classid",
        "spec",
        "parent",
        "children",
        "depth",
        "rule",
        "theta",
        "bucket",
        "shadow",
        "gamma",
        "gamma_rate",
        "gamma_peak",
        "last_update",
        "last_seen",
        "updating",
        "params",
        "updates",
        "forwarded_packets",
        "forwarded_bits",
        "borrowed_bits",
        "lent_bits",
        "tracer",
        "_leaves",
    )

    def __init__(self, spec: ClassSpec, parent: Optional["ClassNode"], params: SchedulingParams):
        self.classid = spec.classid
        self.spec = spec
        self.parent = parent
        self.children: List[ClassNode] = []
        self.depth = 0 if parent is None else parent.depth + 1
        self.params = params
        #: Current token rate θ in bit/s (recomputed at update epochs).
        self.theta = 0.0
        initial_rate = spec.ceil if (parent is None and spec.ceil is not None) else spec.rate
        self.bucket = TokenBucket.for_interval(
            initial_rate, params.update_interval * params.burst_intervals, params.min_burst_bits
        )
        #: Shadow bucket: unconsumed tokens available to borrowers.
        self.shadow = TokenBucket.for_interval(
            0.0, params.update_interval * params.burst_intervals, params.min_burst_bits
        )
        self.shadow.drain()  # nothing lendable before the first epoch
        #: Consumption counter Γ accumulator (Eq. 3).
        self.gamma = WindowedRate()
        #: Γ measured over the last closed epoch, bit/s (EWMA-smoothed).
        self.gamma_rate = 0.0
        #: Decaying peak of raw per-epoch Γ. Residual rules subtract a
        #: prior sibling's *peak* recent usage rather than its average:
        #: a TCP flow's sawtooth troughs are not spare bandwidth, and
        #: granting them to lower classes creates a stable over-grant
        #: equilibrium (inflated RTTs keep the prior flow underfilled).
        self.gamma_peak = 0.0
        self.last_update = 0.0
        self.last_seen = -float("inf")
        #: The per-class update try-lock flag.
        self.updating = False
        #: Assigned after tree construction.
        self.rule: RateRule = derive_rule(self)
        # --- lifetime statistics -------------------------------------
        self.updates = 0
        self.forwarded_packets = 0
        self.forwarded_bits = 0.0
        self.borrowed_bits = 0.0
        self.lent_bits = 0.0
        #: Enabled tracer or None; set via SchedulingTree.attach_tracer.
        self.tracer = None
        #: Memoised leaf_descendants() result (tree is static after
        #: construction; borrowing queries this on every red packet).
        self._leaves: Optional[List[ClassNode]] = None

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """Leaves meter packets; interior classes only measure."""
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def is_active(self, now: float) -> bool:
        """True if the class saw a packet within the expiry window."""
        return (now - self.last_seen) <= self.params.expire_after

    def touch(self, now: float) -> None:
        """Record packet-arrival activity (offered, not forwarded —
        an all-red class is still active and keeps its reservations)."""
        if now > self.last_seen:
            self.last_seen = now

    # ------------------------------------------------------------------
    # the update subprocedure (one core at a time per class)
    # ------------------------------------------------------------------
    def try_begin_update(self, now: float) -> bool:
        """The try-lock gate: True when this caller should run the
        update (interval elapsed and no other core updating)."""
        if self.updating:
            return False
        if now - self.last_update < self.params.update_interval:
            return False
        self.updating = True
        return True

    def perform_update(self, now: float) -> None:
        """The update body (runs with :attr:`updating` held).

        1. expired-status removal (Subprocedure 3);
        2. roll Γ over the closing epoch (Eq. 3);
        3. recompute θ from the condition template;
        4. replenish the regular bucket at the new θ;
        5. *transfer* the epoch's unconsumed tokens into the shadow
           bucket ("the shadow bucket contains unconsumed tokens of a
           regular traffic class at each update epoch").

        The transfer in step 5 is a move, not a copy: a class's unused
        grant lives either in its own bucket (up to one epoch of
        working tokens) or in its shadow, never both — so the sum of
        all grants can never exceed the root rate, which is what makes
        borrowing safe against the shared FIFO Tx buffer. The lendable
        *rate* this produces equals Eq. 6's ``θ_C − Γ_C``; the shadow's
        ``rate_bps`` field publishes that value for observability.
        """
        if not self.is_active(now) and self.last_seen != -float("inf"):
            self.reset_status(now)
        raw_gamma = self.gamma.roll(now)
        alpha = self.params.gamma_alpha
        self.gamma_rate += alpha * (raw_gamma - self.gamma_rate)
        self.gamma_peak = max(raw_gamma, self.gamma_peak * self.params.gamma_peak_decay)
        theta = max(0.0, self.rule.compute(RuleContext(self, now)))
        self.theta = theta
        interval = self.params.update_interval
        working = theta * interval
        burst = max(self.params.min_burst_bits, working * self.params.burst_intervals)
        self.bucket.rate_bps = theta
        self.bucket.resize(burst)
        self.bucket.refill(now)
        self.shadow.resize(burst)
        excess = self.bucket.withdraw_excess(max(working, self.params.min_burst_bits))
        self.shadow.deposit(excess)
        # Published lendable rate (Eq. 6) — observability only; the
        # shadow is fed by transfers, not by its own refill clock.
        self.shadow.rate_bps = max(0.0, theta - self.gamma_rate)
        self.last_update = now
        self.updates += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                now,
                "core.sched",
                "rate_update",
                classid=self.classid,
                theta=theta,
                gamma=raw_gamma,
                gamma_rate=self.gamma_rate,
                shadow_transfer=excess,
                lendable_rate=self.shadow.rate_bps,
                epoch=self.updates,
            )

    def end_update(self) -> None:
        """Release the update try-lock."""
        self.updating = False

    def update(self, now: float) -> bool:
        """Convenience: the full gated update; True if it ran."""
        if not self.try_begin_update(now):
            return False
        try:
            self.perform_update(now)
        finally:
            self.end_update()
        return True

    def reset_status(self, now: float) -> None:
        """Restore expired status to initial values (Subprocedure 3)."""
        self.gamma.reset(now)
        self.gamma_rate = 0.0
        self.gamma_peak = 0.0
        self.shadow.drain()
        self.shadow.rate_bps = 0.0
        if self.tracer is not None:
            self.tracer.emit(now, "core.sched", "expire", classid=self.classid)

    # ------------------------------------------------------------------
    def count_forwarded(self, size_bits: float) -> None:
        """Add one forwarded packet's tokens to Γ and the counters."""
        self.gamma.observe(size_bits)
        self.forwarded_packets += 1
        self.forwarded_bits += size_bits

    def leaf_descendants(self) -> List["ClassNode"]:
        """All leaf classes under this node (itself, if a leaf).

        Borrowing from an *interior* class queries these leaves' shadow
        buckets in order: the interior class's lendable bandwidth IS
        its subtree's unconsumed grants (Fig. 9), and draining the leaf
        shadows directly keeps the total granted bandwidth conserved —
        an interior shadow holding its own copy would let the same
        unused tokens be spent twice (once by the borrower, once later
        by the returning leaf).

        The result is memoised: the tree never changes shape after
        construction, and the borrow subprocedure asks on every red
        packet. Callers must not mutate the returned list.
        """
        cached = self._leaves
        if cached is not None:
            return cached
        if self.is_leaf:
            leaves: List[ClassNode] = [self]
        else:
            leaves = []
            stack = list(self.children)
            while stack:
                node = stack.pop(0)
                if node.is_leaf:
                    leaves.append(node)
                else:
                    stack.extend(node.children)
        self._leaves = leaves
        return leaves

    def path_from_root(self) -> List["ClassNode"]:
        """Root-first list of nodes down to (and including) this one."""
        path: List[ClassNode] = []
        cursor: Optional[ClassNode] = self
        while cursor is not None:
            path.append(cursor)
            cursor = cursor.parent
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.is_leaf else "interior"
        return f"<ClassNode {self.classid} {kind} θ={self.theta:.0f} Γ={self.gamma_rate:.0f}>"


class SchedulingTree:
    """The full class hierarchy, indexed by class id.

    Build it with :meth:`from_policy`; the front end
    (:mod:`repro.core.frontend`) does this after validation and then
    "populates the SmartNIC shared memory" — in the model, hands the
    tree object to the scheduling function.
    """

    def __init__(self, root: ClassNode, nodes: Dict[str, ClassNode], params: SchedulingParams):
        self.root = root
        self._nodes = nodes
        self.params = params

    @classmethod
    def from_policy(
        cls,
        policy: PolicyConfig,
        link_rate_bps: Optional[float] = None,
        params: Optional[SchedulingParams] = None,
    ) -> "SchedulingTree":
        """Construct the tree from a policy.

        ``link_rate_bps`` overrides/supplies the root rate when the
        policy's top class doesn't carry one (PRIO qdiscs have no rate;
        the physical line rate is the natural ceiling).
        """
        params = params if params is not None else SchedulingParams()
        qdisc = policy.root_qdisc()
        top_specs = policy.children_of(qdisc.handle)
        if not top_specs:
            raise PolicyError("policy defines no classes under the root qdisc")
        if len(top_specs) > 1:
            raise PolicyError(
                "policy must have a single top class under the root qdisc "
                f"(found {[c.classid for c in top_specs]})"
            )
        root_spec = top_specs[0]
        if link_rate_bps is not None and root_spec.ceil is None and root_spec.rate == 0:
            # Synthesise the root rate from the link.
            root_spec = ClassSpec(
                classid=root_spec.classid,
                parent=root_spec.parent,
                rate=link_rate_bps,
                ceil=link_rate_bps,
                weight=root_spec.weight,
                prio=root_spec.prio,
                guarantee=root_spec.guarantee,
                guarantee_threshold=root_spec.guarantee_threshold,
                borrow=root_spec.borrow,
            )
        nodes: Dict[str, ClassNode] = {}
        root = ClassNode(root_spec, None, params)
        nodes[root.classid] = root
        cls._attach_children(policy, root, nodes, params)
        tree = cls(root, nodes, params)
        tree.prime()
        return tree

    @classmethod
    def _attach_children(
        cls,
        policy: PolicyConfig,
        parent: ClassNode,
        nodes: Dict[str, ClassNode],
        params: SchedulingParams,
    ) -> None:
        for spec in policy.children_of(parent.classid):
            node = ClassNode(spec, parent, params)
            parent.children.append(node)
            nodes[node.classid] = node
            cls._attach_children(policy, node, nodes, params)

    # ------------------------------------------------------------------
    def node(self, classid: str) -> ClassNode:
        """Lookup by class id; raises :class:`UnknownClassError`."""
        try:
            return self._nodes[classid]
        except KeyError:
            raise UnknownClassError(classid) from None

    def __contains__(self, classid: str) -> bool:
        return classid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[ClassNode]:
        """All nodes, root first (breadth-first order)."""
        ordered: List[ClassNode] = []
        frontier = [self.root]
        while frontier:
            node = frontier.pop(0)
            ordered.append(node)
            frontier.extend(node.children)
        return ordered

    def leaves(self) -> List[ClassNode]:
        """All leaf classes."""
        return [n for n in self.nodes if n.is_leaf]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Point every class node at *tracer* for update-epoch events.

        A disabled tracer (``tracer.enabled`` false) detaches instead:
        nodes hold ``None`` and :meth:`ClassNode.perform_update` skips
        payload construction with a single identity check, keeping the
        per-epoch hot path free of observability cost by default.
        """
        active = tracer if (tracer is not None and tracer.enabled) else None
        for node in self.nodes:
            node.tracer = active

    def register_metrics(self, registry) -> None:
        """Register per-class probes (θ, Γ, lifetime counters) on an
        enabled :class:`~repro.stats.metrics.MetricsRegistry`."""
        if registry is None or not registry.enabled:
            return
        for node in self.nodes:
            prefix = f"sched.{node.classid}"
            registry.probe(f"{prefix}.theta_bps", lambda n=node: n.theta)
            registry.probe(f"{prefix}.gamma_bps", lambda n=node: n.gamma_rate)
            registry.probe(f"{prefix}.forwarded_packets", lambda n=node: n.forwarded_packets)
            registry.probe(f"{prefix}.borrowed_bits", lambda n=node: n.borrowed_bits)
            registry.probe(f"{prefix}.lent_bits", lambda n=node: n.lent_bits)
            registry.probe(f"{prefix}.updates", lambda n=node: n.updates)

    def prime(self, now: float = 0.0) -> None:
        """Initialise every θ top-down so the first packets see sane
        rates instead of zeros (the front end does this when pushing
        configuration to the NIC).

        Buckets start *empty*: tokens accrue from t=0 at θ. Starting
        full would admit every class's entire burst capacity in one
        line-overrunning lump the moment traffic arrives — a start-up
        transient that parks in the shared Tx FIFO.
        """
        for node in self.nodes:  # breadth-first: parents before children
            node.theta = max(0.0, node.rule.compute(RuleContext(node, now)))
            node.bucket.rate_bps = node.theta
            node.bucket.resize(
                max(
                    self.params.min_burst_bits,
                    node.theta * self.params.update_interval * self.params.burst_intervals,
                )
            )
            node.bucket.tokens = 0.0
            node.bucket.last_refill = now
            node.last_update = now

    def describe(self) -> str:
        """Indented text rendering of the tree with current rates."""
        lines: List[str] = []

        def walk(node: ClassNode, indent: int) -> None:
            pad = "  " * indent
            lines.append(
                f"{pad}{node.classid} θ={node.theta:.0f}bps Γ={node.gamma_rate:.0f}bps "
                f"rule={node.rule.describe()}"
            )
            for child in node.children:
                walk(child, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)
