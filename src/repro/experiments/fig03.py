"""E-F3 — Figure 3: kernel traffic control mis-enforcing the
motivation policy.

Reproduces the three published artifacts on the same workload the
FlowValve run (Fig. 11a) uses:

1. kernel HTB cannot give NC the full link even when NC is alone
   (global-lock capacity; the kernel path tops out below line rate);
2. total consumption between 15 s and 45 s exceeds the 10 Gbit root
   ceiling by ~20% (lock-contention token inflation, [23]);
3. the KVS > ML priority is ignored — the two split S2's share
   equally (quantum-capped DRR borrowing).
"""

from __future__ import annotations

from typing import Optional

from .base import ScaledSetup, TimelineResult, run_kernel_htb_timeline
from .policies import motivation_htb_tree
from .workloads import motivation_demands

__all__ = ["run"]

#: The published testbed: a 10 Gbit policy ceiling on a 40 Gbit wire —
#: the gap is where the HTB overshoot artifact lives.
DEFAULT_SETUP = ScaledSetup(nominal_link_bps=10e9, scale=100.0, wire_bps=40e9)


def run(setup: Optional[ScaledSetup] = None, *, duration: float = 60.0) -> TimelineResult:
    """Run the kernel-HTB motivation timeline; returns nominal-rate
    bins per app."""
    setup = setup if setup is not None else DEFAULT_SETUP
    qdisc = motivation_htb_tree(setup.link_bps, setup.scaled_wire_bps)
    demands = motivation_demands(setup.nominal_link_bps)
    return run_kernel_htb_timeline(
        qdisc,
        demands,
        setup,
        duration=duration,
        title="Fig. 3 — kernel HTB, motivation policy (10 Gbit ceiling, 40 Gbit wire)",
    )
