"""E-F11c — regenerate Figure 11(c): 40 Gbit weighted fair queueing
with the Fig. 12 hierarchy (App0:S1 = App1:S2 = App2:App3 = 1:1).

Shape claims from the paper:

* with App0/App1/App3 active, nominal weighted shares hold
  (App0 = 20 G, App1 = 10 G; App3 inherits S2's 10 G while App2 idle);
* "the appearance of App2's traffic at time 20 s does not affect the
  traffic of App0" — App0 stays at its 20 G share;
* when App0 stops at 30 s the remaining classes share the link
  without weighted borrowing (roughly equally).
"""

import pytest
from conftest import run_once

from repro.experiments import fig11


def test_fig11c_weighted_fair_queueing(benchmark, emit):
    result = run_once(benchmark, fig11.run, variant="c")
    emit(result.to_table().render() + f"\n[{result.notes}]")

    link = 40e9
    # Before App2 joins: App0 half, App1 quarter, App3 the rest.
    assert result.mean_rate("App0", 10, 20) == pytest.approx(link / 2, rel=0.1)
    assert result.mean_rate("App1", 10, 20) == pytest.approx(link / 4, rel=0.15)

    # App2's arrival must not disturb App0 (the paper's headline claim).
    before = result.mean_rate("App0", 10, 20)
    after = result.mean_rate("App0", 20, 30)
    assert after == pytest.approx(before, rel=0.08)

    # App2+App3 split S2's share while App0/App1 keep theirs (20-30 s).
    assert result.mean_rate("App2", 20, 30) == pytest.approx(link / 8, rel=0.25)
    assert result.mean_rate("App3", 20, 30) == pytest.approx(link / 8, rel=0.25)

    # App0 stops at 30 s: the rest share the link, none starved, link
    # still saturated.
    for app in ("App1", "App2", "App3"):
        share = result.mean_rate(app, 40, 60)
        assert share > link / 6, f"{app} starved at {share/1e9:.1f}G"
    assert result.total_rate(40, 60) > 0.9 * link
