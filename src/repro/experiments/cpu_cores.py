"""E-CPU — §V-B's core-saving claim.

"FlowValve can accurately enforce QoS policies while driving TCP
traffic at 40Gbps, which contributes to freeing two CPU cores. It can
further save more CPU resources as the packet rate increases."

The comparison: at a matched offered load, how many host CPU cores
does each scheduler's *scheduling work* consume?

* FlowValve — zero: classification and scheduling run on the NIC; the
  host pays only the application send path.
* kernel HTB — the softirq dequeue core plus the per-packet qdisc
  enqueue work charged to every sending app's core.
* DPDK QoS — its dedicated poll-mode cores, busy at 100% by
  construction, plus (like FlowValve) the app send path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines import DpdkQosParams, DpdkQosScheduler, KernelQdiscRuntime
from ..core import FlowValveFrontend
from ..net import Link, PacketFactory, PacketSink
from ..nic import NicPipeline
from ..host import FixedRateSender, HostCpu
from ..sim import Simulator
from ..stats.report import Table
from ..units import line_rate_pps
from .base import ScaledSetup
from .fig13 import DPDK_CORES_BY_SIZE, _fair_htb_tree
from .policies import fair_policy

__all__ = ["CpuRow", "CpuResult", "run", "DEFAULT_SETUP"]

#: The published comparison point: 40 Gbit at ~120% offered load.
DEFAULT_SETUP = ScaledSetup(nominal_link_bps=40e9, scale=400.0, wire_bps=40e9, seed=17)


@dataclass
class CpuRow:
    """Scheduling-cost cores for one scheduler at one load point."""

    scheduler: str
    line_rate_bps: float
    packet_size: int
    throughput_mpps: float
    sched_cores: float
    total_cores: float


def _senders(sim, factory, submit, setup: ScaledSetup, packet_size: int, cpu: HostCpu,
             send_cost: float):
    for i in range(4):
        FixedRateSender(
            sim, f"App{i}", factory, submit,
            rate_bps=0.3 * setup.link_bps, packet_size=packet_size, vf_index=i,
            jitter=0.1, rng=sim.random.stream(f"App{i}"),
            cpu=cpu.core(i), send_cost_seconds=send_cost,
        )


@dataclass
class CpuResult:
    """The measured §V-B core comparison (unified-API wrapper)."""

    rows: List[CpuRow]

    def to_table(self) -> Table:
        """Render the CPU comparison."""
        table = Table(
            "§V-B — CPU cores consumed by scheduling at matched load",
            ["scheduler", "rate", "size(B)", "throughput(Mpps)", "sched cores", "total host cores"],
        )
        for row in self.rows:
            table.add_row(
                row.scheduler, f"{row.line_rate_bps / 1e9:.0f}G", row.packet_size,
                row.throughput_mpps, row.sched_cores, row.total_cores,
            )
        return table


def run(
    setup: Optional[ScaledSetup] = None,
    *,
    packet_size: int = 1518,
    duration: float = 20.0,
) -> CpuResult:
    """Measure scheduling-cost core-equivalents for all three systems
    at ~120% offered load of ``setup.nominal_link_bps``."""
    setup = setup if setup is not None else DEFAULT_SETUP
    line_rate_bps = setup.nominal_link_bps
    scale = setup.scale
    seed = setup.seed
    rows: List[CpuRow] = []
    # DPDK-style app send cost (~300 cycles at 2.3 GHz), scaled.
    send_cost = 300 / 2.3e9 * scale

    # ---------------- FlowValve ---------------------------------------
    sim = Simulator(seed=seed)
    cpu = HostCpu(sim, n_cores=8)
    frontend = FlowValveFrontend(fair_policy(setup.link_bps, 4),
                                 link_rate_bps=setup.link_bps,
                                 params=setup.sched_params())
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    nic = NicPipeline.with_flowvalve(sim, setup.nic_config(), frontend,
                                     receiver=sink.receive)
    factory = PacketFactory()
    _senders(sim, factory, nic.submit, setup, packet_size, cpu, send_cost)
    sim.run(until=duration)
    tput = sink.total_packets / duration * setup.scale / 1e6
    rows.append(CpuRow(
        "FlowValve", line_rate_bps, packet_size, round(tput, 2),
        sched_cores=round(cpu.report.core_equivalents(duration, "sched"), 2),
        total_cores=round(cpu.report.core_equivalents(duration, ""), 2),
    ))

    # ---------------- kernel HTB --------------------------------------
    sim = Simulator(seed=seed)
    cpu = HostCpu(sim, n_cores=8)
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    link = Link(sim, setup.scaled_wire_bps, receiver=sink.receive)
    qdisc = _fair_htb_tree(setup.link_bps, 4)
    runtime = KernelQdiscRuntime(sim, qdisc, link, params=setup.kernel_params(),
                                 softirq_core=cpu.core(7))
    for i in range(4):
        runtime.register_app_core(f"App{i}", cpu.core(i))
    factory = PacketFactory()
    _senders(sim, factory, runtime.enqueue, setup, packet_size, cpu, send_cost)
    sim.run(until=duration)
    tput = sink.total_packets / duration * setup.scale / 1e6
    rows.append(CpuRow(
        "Linux HTB", line_rate_bps, packet_size, round(tput, 2),
        sched_cores=round(cpu.report.core_equivalents(duration, "sched"), 2),
        total_cores=round(cpu.report.core_equivalents(duration, ""), 2),
    ))

    # ---------------- DPDK QoS ----------------------------------------
    n_cores = DPDK_CORES_BY_SIZE.get(packet_size, 4)
    # A core can't schedule more than the demand needs:
    needed = line_rate_pps(line_rate_bps, packet_size)
    params = DpdkQosParams()
    while n_cores > 1 and params.capacity_pps(n_cores - 1) > 1.2 * needed:
        n_cores -= 1
    sim = Simulator(seed=seed)
    cpu = HostCpu(sim, n_cores=8)
    sink = PacketSink(sim, rate_window=1.0, record_delays=False)
    link = Link(sim, setup.scaled_wire_bps, receiver=sink.receive)
    qdisc = _fair_htb_tree(setup.link_bps, 4)
    sched = DpdkQosScheduler(
        sim, qdisc, link, n_cores=n_cores, params=params.scaled(setup.scale),
        cores=[cpu.core(4 + i) for i in range(min(4, n_cores))],
    )
    factory = PacketFactory()
    _senders(sim, factory, sched.submit, setup, packet_size, cpu, send_cost)
    sim.run(until=duration)
    tput = sink.total_packets / duration * setup.scale / 1e6
    rows.append(CpuRow(
        "DPDK QoS", line_rate_bps, packet_size, round(tput, 2),
        sched_cores=round(cpu.report.core_equivalents(duration, "sched"), 2),
        total_cores=round(cpu.report.core_equivalents(duration, ""), 2),
    ))
    return CpuResult(rows=rows)
