"""Adapters porting the existing schedulers behind the crossbar.

Three families of pre-existing scheduler code gain the
:class:`~repro.sched.base.Scheduler` interface here without any change
to their own modules:

* :class:`FlowValveScheduler` — Algorithm 1
  (:mod:`repro.core.scheduling`) run schedule-then-queue: the verdict
  decides *before* buffering, a FORWARD lands in a plain Tx FIFO and a
  DROP never occupies buffer space — exactly the paper's specialized
  tail drop. This is the *software-reference* form used by the
  crossbar runtime and the conformance tests; the calibrated NIC
  pipeline (:mod:`repro.nic.pipeline`) remains the authoritative
  FlowValve execution and is untouched by this adapter.

* :class:`QdiscScheduler` — wraps any classful qdisc (HTB, PRIO, the
  DPDK-QoS shaping tree) whose queue-then-schedule contract already
  matches the base interface; the adapter adds the uniform stats and
  step costs.

Builders that assemble these from a parsed policy live in
:mod:`repro.sched.registry`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..baselines.qdisc_base import Qdisc
from ..core.frontend import FlowValveFrontend
from ..core.scheduling import Verdict
from ..net.packet import DropReason, Packet
from ..nic.config import CycleCosts
from .base import Scheduler, StepCosts

__all__ = ["FlowValveScheduler", "QdiscScheduler"]

#: FlowValve's step budgets in the crossbar cost model, derived from
#: the calibrated NFP budgets (:class:`~repro.nic.config.CycleCosts`):
#: classify = one EMC hit, rank = Algorithm 1's per-class walk on a
#: 2-level path (two class visits + the leaf meter), enqueue/dequeue =
#: Tx FIFO ring ops. Totals 940 cycles — the policy-specific slice of
#: the pipeline's ≈3050-cycle packet budget.
_CAL = CycleCosts()
FLOWVALVE_COSTS = StepCosts(
    classify=float(_CAL.emc_hit),
    rank=float(2 * _CAL.sched_per_class + _CAL.meter),
    enqueue=float(_CAL.ring_op),
    dequeue=float(_CAL.ring_op),
)

#: DPDK QoS measures 1022 cycles/packet total (Fig. 13 calibration);
#: librte_sched folds classification into enqueue, so the budget is
#: split across the two queue operations.
DPDK_QOS_COSTS = StepCosts(classify=0.0, rank=0.0, enqueue=511.0, dequeue=511.0)

#: Kernel-qdisc algorithms driven outside the kernel runtime: charge
#: roughly the kernel's per-packet enqueue+dequeue CPU work expressed
#: at the NFP clock scale (the lock/softirq artifacts stay in
#: :class:`~repro.baselines.kernel.KernelQdiscRuntime`, not here).
KERNEL_ALGO_COSTS = StepCosts(classify=220.0, rank=260.0, enqueue=330.0, dequeue=330.0)


class FlowValveScheduler(Scheduler):
    """Algorithm 1 as a crossbar scheduler (software-reference mode).

    ``enqueue`` labels the packet and runs the full decision; FORWARDs
    enter a bounded Tx FIFO (depth ``tx_depth``; beyond it the packet
    drops as NO_BUFFER — with specialized tail drop the FIFO only ever
    holds the wire's serialisation backlog, so this bound is a safety
    net, not a policy instrument).
    """

    name = "flowvalve"

    def __init__(
        self,
        frontend: FlowValveFrontend,
        tx_depth: int = 1024,
        costs: Optional[StepCosts] = None,
    ):
        super().__init__(costs if costs is not None else FLOWVALVE_COSTS)
        self.frontend = frontend
        self.tx_depth = tx_depth
        self._fifo: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> bool:
        label = self.frontend.labeler.label(packet)
        if label is None:
            self.stats.unclassified += 1
            self.stats.dropped += 1
            return False
        if self.frontend.scheduler.decide(packet, now) is Verdict.DROP:
            self.stats.dropped += 1
            return False
        if len(self._fifo) >= self.tx_depth:
            self.stats.dropped += 1
            packet.mark_dropped(DropReason.NO_BUFFER)
            return False
        self._fifo.append(packet)
        self.stats.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        self.stats.dequeued += 1
        return self._fifo.popleft()

    def next_ready_time(self, now: float) -> Optional[float]:
        return now if self._fifo else None

    @property
    def backlog(self) -> int:
        return len(self._fifo)


class QdiscScheduler(Scheduler):
    """Any classful qdisc behind the crossbar interface."""

    def __init__(self, qdisc: Qdisc, name: str, costs: Optional[StepCosts] = None):
        super().__init__(costs if costs is not None else KERNEL_ALGO_COSTS)
        self.qdisc = qdisc
        self.name = name

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.qdisc.enqueue(packet, now):
            self.stats.enqueued += 1
            return True
        self.stats.dropped += 1
        if packet.drop_reason is DropReason.UNCLASSIFIED:
            self.stats.unclassified += 1
        return False

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self.qdisc.dequeue(now)
        if packet is not None:
            self.stats.dequeued += 1
        return packet

    def next_ready_time(self, now: float) -> Optional[float]:
        return self.qdisc.next_ready_time(now)

    @property
    def backlog(self) -> int:
        return self.qdisc.backlog
