"""The :class:`FlowValve` facade.

One object that ties the front end and back end together for software
use: feed it packets, it labels them, runs Algorithm 1, and returns the
verdict. This is the reference execution mode — the cycle-accurate
NP-embedded execution lives in :mod:`repro.nic.pipeline`, which reuses
the same labeler and scheduling function objects exposed here.
"""

from __future__ import annotations

from typing import Optional

from ..net.packet import Packet
from ..tc.ast import PolicyConfig
from .frontend import FlowValveFrontend
from .sched_tree import SchedulingParams
from .scheduling import Verdict

__all__ = ["FlowValve"]


class FlowValve:
    """The offloaded classifier + scheduler, software reference mode.

    >>> valve = FlowValve.from_script('''
    ...     fv qdisc add dev eth0 root handle 1: htb default 10
    ...     fv class add dev eth0 parent 1: classid 1:1 fv rate 10gbit
    ...     fv class add dev eth0 parent 1:1 classid 1:10 fv rate 10gbit
    ... ''', link_rate_bps=10e9)

    Then per packet: ``valve.process(packet, now)`` → FORWARD/DROP.
    """

    def __init__(
        self,
        policy: PolicyConfig,
        link_rate_bps: Optional[float] = None,
        params: Optional[SchedulingParams] = None,
    ):
        self.frontend = FlowValveFrontend(policy, link_rate_bps, params)

    @classmethod
    def from_script(
        cls,
        script: str,
        link_rate_bps: Optional[float] = None,
        params: Optional[SchedulingParams] = None,
    ) -> "FlowValve":
        """Build a valve from ``fv`` commands (see §III-E)."""
        from ..tc.parser import parse_script

        return cls(parse_script(script), link_rate_bps, params)

    # convenient aliases -------------------------------------------------
    @property
    def tree(self):
        """The scheduling tree."""
        return self.frontend.tree

    @property
    def labeler(self):
        """The labeling function."""
        return self.frontend.labeler

    @property
    def scheduler(self):
        """The scheduling function (Algorithm 1)."""
        return self.frontend.scheduler

    @property
    def stats(self):
        """Scheduling statistics."""
        return self.frontend.scheduler.stats

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a tracer / metrics registry into the scheduling core."""
        self.frontend.attach_observability(tracer, metrics)

    # ------------------------------------------------------------------
    def process(self, packet: Packet, now: float) -> Verdict:
        """Label then schedule one packet; the packet is marked dropped
        on a DROP verdict (including unclassifiable packets)."""
        label = self.frontend.labeler.label(packet)
        if label is None:
            return Verdict.DROP
        return self.frontend.scheduler.decide(packet, now)

    def describe(self) -> str:
        """Status text for CLI/report output."""
        return self.frontend.describe()
