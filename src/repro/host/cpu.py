"""Host CPU cores with busy-time accounting.

The model does not simulate instruction execution on the host — it
charges *costs*: each send-path operation (syscall/driver work, qdisc
enqueue, scheduler polling) adds busy seconds to the core it runs on.
A core can be oversubscribed in accounting terms; ``utilization`` then
saturates at 1.0 and :meth:`HostCpu.saturated` reports it, which is the
model's signal that a software scheduler has run out of CPU (the
paper's Fig. 13 cores column).
"""

from __future__ import annotations

from typing import List

from ..stats.cpu import CpuReport

__all__ = ["CpuCore", "HostCpu"]


class CpuCore:
    """One host core: a named ledger of busy time."""

    def __init__(self, sim, core_id: int, report: CpuReport):
        self.sim = sim
        self.core_id = core_id
        self._usage = report.core(core_id)
        self._started = sim.now

    def charge(self, activity: str, seconds: float) -> None:
        """Account *seconds* of busy time under *activity*."""
        self._usage.charge(activity, seconds)

    def utilization(self) -> float:
        """Busy fraction since this core was created."""
        elapsed = self.sim.now - self._started
        return self._usage.utilization(elapsed)

    def busy_seconds(self) -> float:
        return self._usage.busy_seconds()


class HostCpu:
    """A socket of cores plus the shared report."""

    def __init__(self, sim, n_cores: int = 8, freq_hz: float = 2.3e9):
        self.sim = sim
        self.freq_hz = freq_hz
        self.report = CpuReport()
        self._cores: List[CpuCore] = [CpuCore(sim, i, self.report) for i in range(n_cores)]

    def __len__(self) -> int:
        return len(self._cores)

    def core(self, index: int) -> CpuCore:
        """Core by index; raises ``IndexError`` beyond the socket."""
        return self._cores[index]

    def seconds(self, cycles: float) -> float:
        """Convert host cycles to seconds."""
        return cycles / self.freq_hz

    def saturated(self, threshold: float = 0.95) -> List[int]:
        """Cores whose accounted busy time exceeds *threshold*."""
        return [c.core_id for c in self._cores if c.utilization() >= threshold]
