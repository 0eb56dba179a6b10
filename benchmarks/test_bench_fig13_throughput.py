"""E-F13 — regenerate Figure 13: maximum throughput vs packet size.

Shape assertions:

* FlowValve reaches line rate for ≥512 B frames and is NP-bound near
  the paper's 19.69 Mpps at 64 B;
* DPDK QoS is scheduler-core-bound (~2.25 Mpps/core) and loses to
  FlowValve at every size;
* the FlowValve:DPDK gap *widens* as packets shrink (the paper's
  "becomes more obvious as the packet rate increases").
"""

import pytest
from conftest import run_once

from repro.experiments import fig13


def test_fig13_max_throughput(benchmark, emit):
    result = run_once(benchmark, fig13.run)
    emit(result.to_table().render())

    rows = result.rows
    by_size = {row.size: row for row in rows}

    # FlowValve: line-rate-bound for large frames...
    for size in (512, 1024, 1518):
        row = by_size[size]
        assert row.flowvalve_mpps == pytest.approx(row.line_rate_mpps, rel=0.05)
    # ...and NP-processing-bound at 64 B, near the paper's 19.69 Mpps.
    assert by_size[64].flowvalve_mpps == pytest.approx(19.69, rel=0.1)

    # DPDK: ~2.25 Mpps per core at the published core counts.
    assert by_size[1518].dpdk_mpps == pytest.approx(2.25, rel=0.1)
    assert by_size[1024].dpdk_mpps == pytest.approx(4.49, rel=0.1)
    assert by_size[64].dpdk_mpps == pytest.approx(9.06, rel=0.15)

    # FlowValve wins everywhere, and the gap widens at small frames.
    for row in rows:
        assert row.flowvalve_mpps > row.dpdk_mpps
    gap_large = by_size[1518].flowvalve_mpps / by_size[1518].dpdk_mpps
    gap_small = by_size[64].flowvalve_mpps / by_size[64].dpdk_mpps
    assert gap_small > gap_large
