"""A-DELAY — Fig. 10's token-rate propagation analysis, measured.

Shape: after a step change in the top priority class's rate, each
deeper class's θ settles one-to-a-few update epochs later than the
class above it — the paper's ΔD_A1 < ΔD_A2 ordering — and absolute
settle times stay within tens of epochs.
"""

from conftest import run_once

from repro.experiments import ablations
from repro.stats.report import Table


def test_propagation_delay_grows_with_depth(benchmark, emit):
    results = run_once(benchmark, ablations.propagation).results

    table = Table(
        "A-DELAY — θ settle time after a step in the top class (Fig. 10)",
        ["class", "tree depth", "settle (s)", "settle (epochs)"],
    )
    for r in results:
        table.add_row(r.classid, r.depth, r.settle_seconds, r.settle_epochs)
    emit(table.render())

    assert len(results) >= 2
    # Ordered by depth: deeper classes settle no earlier.
    for shallower, deeper in zip(results, results[1:]):
        assert deeper.depth > shallower.depth
        assert deeper.settle_epochs >= shallower.settle_epochs
    # Everything converges within tens of epochs (the paper's "tens of
    # milliseconds" at hardware epoch lengths).
    for r in results:
        assert r.settle_epochs < 40
