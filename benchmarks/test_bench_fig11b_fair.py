"""E-F11b — regenerate Figure 11(b): 40 Gbit fair queueing.

Shape: each staggered join re-divides the line rate evenly
(≈40 → 20 → 13.3 → 10 Gbit per app), and the link stays saturated
throughout ("FlowValve precisely distributes bandwidth among active
flows and drives line rate").
"""

import pytest
from conftest import run_once

from repro.experiments import fig11


def test_fig11b_fair_queueing(benchmark, emit):
    result = run_once(benchmark, fig11.run, variant="b")
    emit(result.to_table().render() + f"\n[{result.notes}]")

    link = 40e9
    # Phase means (apps join at 0/10/20/30 s).
    assert result.mean_rate("App0", 5, 10) > 0.9 * link
    for app in ("App0", "App1"):
        assert result.mean_rate(app, 15, 20) == pytest.approx(link / 2, rel=0.08)
    for app in ("App0", "App1", "App2"):
        assert result.mean_rate(app, 25, 30) == pytest.approx(link / 3, rel=0.08)
    for app in ("App0", "App1", "App2", "App3"):
        assert result.mean_rate(app, 40, 60) == pytest.approx(link / 4, rel=0.08)

    # Line rate is sustained once more than one app is active.
    for start in range(15, 60, 5):
        assert result.total_rate(start, start + 5) > 0.92 * link
