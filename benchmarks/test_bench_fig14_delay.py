"""E-F14 — regenerate Figure 14: one-way delay under fair queueing.

Shape assertions:

* FlowValve has the lowest delay at 10 Gbit;
* its 40 Gbit delay is ~4× the 10 Gbit one (the SmartNIC pipeline
  floor), near the paper's 161 µs;
* FlowValve "almost causes no variations in delay" — jitter orders of
  magnitude below HTB's;
* kernel HTB (10 Gbit only) is the slowest and jitteriest.
"""

from conftest import run_once

from repro.experiments import fig14


def test_fig14_one_way_delay(benchmark, emit):
    result = run_once(benchmark, fig14.run)
    emit(result.to_table().render())

    cells = {(row.scheduler, row.line_rate_bps): row.summary for row in result.rows}
    fv10 = cells[("FlowValve", 10e9)]
    fv40 = cells[("FlowValve", 40e9)]
    htb10 = cells[("Linux HTB", 10e9)]
    dpdk10 = cells[("DPDK QoS", 10e9)]

    # FlowValve lowest at 10 Gbit.
    assert fv10.mean < dpdk10.mean < htb10.mean

    # ~4x growth from 10 to 40 Gbit, near the paper's 161 us floor.
    ratio = fv40.mean / fv10.mean
    assert 3.0 < ratio < 5.5, f"expected ~4x delay growth, got {ratio:.1f}x"
    assert 120e-6 < fv40.mean < 200e-6

    # Near-zero jitter for FlowValve; HTB jitter dominates everything.
    assert fv10.jitter < 5e-6
    assert fv40.jitter < 5e-6
    assert htb10.jitter > 20 * fv10.jitter
