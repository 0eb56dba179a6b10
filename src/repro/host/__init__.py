"""End-host model: CPU cores, AIMD TCP connections, and workload
drivers.

Plays the role of the paper's testbed host (8-core 2.3 GHz, DPDK or
kernel drivers, iperf3/mTCP traffic tools): applications pinned to
cores send TCP traffic into either the SmartNIC pipeline (FlowValve)
or a software scheduler (HTB / DPDK QoS), and every CPU cycle spent on
the send path is charged to a core ledger so the §V-B core-saving
claim can be measured.
"""

from .cpu import CpuCore, HostCpu
from .tcp import AimdConnection, TcpParams, TcpRegistry
from .traffic import (
    DemandSchedule,
    FixedRateSender,
    TcpApp,
    propagate_next_change,
    windows,
)
from .workload_gen import TraceWorkload, WorkloadProfile, WORKLOAD_PRESETS

__all__ = [
    "CpuCore",
    "HostCpu",
    "AimdConnection",
    "TcpParams",
    "TcpRegistry",
    "DemandSchedule",
    "FixedRateSender",
    "TcpApp",
    "propagate_next_change",
    "windows",
    "TraceWorkload",
    "WorkloadProfile",
    "WORKLOAD_PRESETS",
]
