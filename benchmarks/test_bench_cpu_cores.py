"""E-CPU — the §V-B core-saving claim.

Shape assertions:

* FlowValve's scheduling cost on the host is ~zero (it is offloaded);
* DPDK QoS burns at least one dedicated core at 1518 B and more at
  64 B (the claim: FlowValve "contributes to saving at least two CPU
  cores", growing with packet rate);
* kernel HTB both costs cores *and* fails to reach the offered rate
  at 40 Gbit.
"""

from dataclasses import replace

from conftest import run_once

from repro.experiments import cpu_cores


def run_both():
    result = cpu_cores.run(packet_size=1518, duration=15.0)
    result.rows += cpu_cores.run(
        replace(cpu_cores.DEFAULT_SETUP, scale=2000.0), packet_size=64, duration=15.0
    ).rows
    return result


def test_cpu_core_saving(benchmark, emit):
    result = run_once(benchmark, run_both)
    emit(result.to_table().render())

    by_key = {(r.scheduler, r.packet_size): r for r in result.rows}
    fv_large = by_key[("FlowValve", 1518)]
    dpdk_large = by_key[("DPDK QoS", 1518)]
    htb_large = by_key[("Linux HTB", 1518)]
    fv_small = by_key[("FlowValve", 64)]
    dpdk_small = by_key[("DPDK QoS", 64)]

    # FlowValve: no host scheduling cost at all.
    assert fv_large.sched_cores < 0.05
    assert fv_small.sched_cores < 0.05

    # DPDK: ≥1 dedicated core at 1518 B, more at 64 B (saving grows
    # with packet rate).
    assert dpdk_large.sched_cores >= 0.95
    assert dpdk_small.sched_cores > dpdk_large.sched_cores

    # Aggregate saving at small packets reaches the "at least two
    # cores" the paper claims (DPDK's cores + HTB's even more).
    assert dpdk_small.sched_cores + htb_large.sched_cores > 2.0

    # Kernel HTB can't reach the offered rate at 40 Gbit even while
    # burning cores.
    assert htb_large.throughput_mpps < 0.5 * fv_large.throughput_mpps
