#!/usr/bin/env python3
"""Multi-tenant isolation: the paper's motivation example, end to end.

Recreates §II's scenario on the full simulated stack — SR-IOV virtual
functions into the NP-based SmartNIC model running FlowValve:

* a network controller (NC) with strict priority;
* vm2's web server (WS) weighted 1 against vm1's 2;
* inside vm1, a key-value store (KVS) prioritised over machine
  learning (ML), with ML guaranteed 2 Gbit whenever vm1's share
  exceeds 4 Gbit.

The timeline staggers the apps (NC bursts alone, then the tenants
arrive and leave) so you can watch priorities, weights, the guarantee,
and work-conserving borrowing all engage. This is exactly experiment
E-F11a; the benchmark suite runs the full 60 s version — this example
runs a compressed 24 s timeline so it finishes in ~15 s.

Run:  python examples/multi_tenant_isolation.py
"""

from repro.experiments.policies import motivation_policy
from repro.host.traffic import windows
from repro.topology import ScaledSetup, timeline


def main() -> None:
    setup = ScaledSetup(nominal_link_bps=10e9, scale=200.0, wire_bps=10e9, seed=42)
    # Compressed phases: 6 s each instead of 15 s.
    b = setup.nominal_link_bps
    demands = {
        "NC": windows((0, 6, 1e12), (6, 18, b / 5)),
        "KVS": windows((6, 18, 1e12)),
        "ML": windows((6, 12, 1e12)),
        "WS": windows((6, 24, 1e12)),
    }
    result = timeline(
        motivation_policy(setup.link_bps),
        demands,
        setup,
        duration=24.0,
        bin_seconds=3.0,
        title="Multi-tenant isolation (motivation example, compressed)",
    )
    print(result.to_table().render())
    print()
    print("What to look for:")
    print("  0-6 s   NC alone takes the whole 10 Gbit link (priority + borrowing)")
    print("  6-12 s  NC throttles itself to 2 G; WS:vm1 split 1:2; inside vm1")
    print("          KVS wins priority but ML's 2 Gbit guarantee holds")
    print(" 12-18 s  ML leaves; KVS absorbs vm1's whole share")
    print(" 18-24 s  only WS remains and borrows its way to the full link")


if __name__ == "__main__":
    main()
