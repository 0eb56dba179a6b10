"""E-F11a — regenerate Figure 11(a): FlowValve enforcing the
motivation policy at 10 Gbit.

Shape assertions (the paper's claims for this figure):

* NC gets all available bandwidth while alone (vs HTB's shortfall);
* from 15-30 s bandwidth distributes per weight and priority: NC at
  its 2 Gbit demand, WS ≈ (link−NC)/3, KVS ≈ S2−guarantee, ML held at
  its 2 Gbit guarantee;
* the total never exceeds the link;
* after everyone leaves, WS work-conserves to the full link.
"""

import pytest
from conftest import run_once

from repro.experiments import fig11


def test_fig11a_flowvalve_motivation(benchmark, emit):
    result = run_once(benchmark, fig11.run, variant="a")
    emit(result.to_table().render() + f"\n[{result.notes}]")

    link = 10e9
    # NC takes the whole link while alone (better than HTB's Fig. 3).
    assert result.mean_rate("NC", 5, 15) > 0.93 * link

    # 15-30 s: weight + priority + guarantee all hold.
    assert result.mean_rate("NC", 20, 30) == pytest.approx(2e9, rel=0.1)
    assert result.mean_rate("WS", 20, 30) == pytest.approx(2.5e9, rel=0.2)
    assert result.mean_rate("KVS", 20, 30) == pytest.approx(3.1e9, rel=0.2)
    assert result.mean_rate("ML", 20, 30) == pytest.approx(2.0e9, rel=0.15)
    # Unlike kernel HTB, priority between KVS and ML is enforced.
    assert result.mean_rate("KVS", 20, 30) > 1.25 * result.mean_rate("ML", 20, 30)

    # The ceiling holds at all times (vs HTB's 12 Gbit).
    for start in range(0, 60, 5):
        assert result.total_rate(start, start + 5) < 1.02 * link

    # 30-45 s: ML gone, KVS absorbs the S2 share.
    assert result.mean_rate("KVS", 35, 45) > 1.35 * result.mean_rate("KVS", 20, 30)

    # 45-60 s: WS alone reclaims (close to) the whole link.
    assert result.mean_rate("WS", 50, 60) > 0.93 * link
