"""Baseline schedulers the paper compares against.

* :mod:`.qdisc_base` — the classful qdisc interface and FIFO leaf
  queues shared by the kernel models;
* :mod:`.prio` — the PRIO qdisc (strict bands);
* :mod:`.htb` — Hierarchy Token Bucket with ceil/borrowing and
  quantum-weighted DRR;
* :mod:`.kernel` — the kernel execution model around a qdisc: the
  global qdisc lock, enqueue on app cores, batched softirq dequeue,
  and the contention artifacts [23] that make kernel HTB inaccurate
  at 10 Gbit+ (Fig. 3);
* :mod:`.dpdk_qos` — the DPDK QoS Scheduler: accurate hierarchical
  shaping on dedicated polling cores with a per-packet cycle cost
  (Fig. 13's CPU-for-throughput trade).
"""

from .._lazy import lazy_exports
from .qdisc_base import LeafQueue, Qdisc
from .htb import HtbClass, HtbQdisc
from .kernel import KernelQdiscRuntime, KernelParams

__all__ = [
    "LeafQueue",
    "Qdisc",
    "PrioQdisc",
    "HtbClass",
    "HtbQdisc",
    "KernelQdiscRuntime",
    "KernelParams",
    "DpdkQosParams",
    "DpdkQosScheduler",
]

# PRIO and the DPDK scheduler load on first use; the HTB models stay
# eager because the shared experiment plumbing builds them
# (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".prio": ("PrioQdisc",),
    ".dpdk_qos": ("DpdkQosParams", "DpdkQosScheduler"),
})
