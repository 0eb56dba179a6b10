"""E-F11 — Figure 11: FlowValve enforcing QoS policies.

(a) the motivation policy on a 10 Gbit link (same workload as Fig. 3);
(b) fair queueing across four apps at 40 Gbit with staggered joins;
(c) the Fig. 12 weighted hierarchy at 40 Gbit.
"""

from __future__ import annotations

from typing import Optional

from ..topology import timeline
from .base import ScaledSetup, TimelineResult
from .policies import fair_policy, motivation_policy, weighted_policy
from .workloads import fair_queueing_demands, motivation_demands, weighted_demands

__all__ = ["run"]

#: Published testbed per sub-figure (the 40 Gbit panels need a deeper
#: rate scale to stay within a per-packet Python DES).
DEFAULT_SETUPS = {
    "a": ScaledSetup(nominal_link_bps=10e9, scale=200.0, wire_bps=10e9),
    "b": ScaledSetup(nominal_link_bps=40e9, scale=800.0, wire_bps=40e9),
    "c": ScaledSetup(nominal_link_bps=40e9, scale=800.0, wire_bps=40e9),
}


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    variant: str = "a",
    duration: float = 60.0,
) -> TimelineResult:
    """FlowValve enforcing one of the Fig. 11 panels.

    ``variant`` selects the panel: ``"a"`` motivation policy at
    10 Gbit, ``"b"`` fair queueing at 40 Gbit with staggered joins,
    ``"c"`` the Fig. 12 weighted hierarchy at 40 Gbit.
    """
    if variant not in DEFAULT_SETUPS:
        raise ValueError(f"fig11 variant must be one of 'a'/'b'/'c', got {variant!r}")
    setup = setup if setup is not None else DEFAULT_SETUPS[variant]
    if variant == "a":
        policy = motivation_policy(setup.link_bps)
        demands = motivation_demands(setup.nominal_link_bps)
        title = "Fig. 11(a) — FlowValve, motivation policy at 10 Gbit"
    elif variant == "b":
        policy = fair_policy(setup.link_bps, n_apps=4)
        demands = fair_queueing_demands(n_apps=4, join_every=10.0, duration=duration)
        title = "Fig. 11(b) — FlowValve fair queueing at 40 Gbit"
    else:
        policy = weighted_policy(setup.link_bps)
        demands = weighted_demands(duration=duration)
        title = "Fig. 11(c) — FlowValve weighted fair queueing at 40 Gbit"
    return timeline(policy, demands, setup, duration=duration, title=title)
