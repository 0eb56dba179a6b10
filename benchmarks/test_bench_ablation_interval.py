"""A-INTERVAL — short-window rate conformance vs the update interval.

Shape: with the paper's literal epoch-granted refill, worst-window
overshoot grows with ΔT (a whole epoch of tokens lands at once); with
the hardware-meter (continuous) refill FlowValve actually relies on,
conformance is flat in ΔT. This quantifies why modelling the NFP meter
instruction as continuously-accruing matters (DESIGN.md §5.3).
"""

from conftest import run_once

from repro.experiments import ablations
from repro.stats.report import Table


def test_update_interval_sensitivity(benchmark, emit):
    results = run_once(benchmark, ablations.interval_sensitivity).overshoot

    table = Table(
        "A-INTERVAL — worst 0.5 s window overshoot vs ΔT (2x overload)",
        ["ΔT (s)", "epoch-granted refill", "continuous (hw meter)"],
    )
    for interval in sorted(results):
        row = results[interval]
        table.add_row(interval, f"{row['epoch']:.3f}", f"{row['continuous']:.3f}")
    emit(table.render())

    intervals = sorted(results)
    # Continuous refill: flat, small overshoot at every ΔT.
    for interval in intervals:
        assert results[interval]["continuous"] < 0.2
    # Epoch-granted refill: overshoot grows with ΔT and is severe at
    # epoch lengths comparable to the measurement window.
    assert results[intervals[-1]]["epoch"] > 0.5
    assert results[intervals[-1]]["epoch"] > results[intervals[0]]["epoch"]
