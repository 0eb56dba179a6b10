"""The FlowValve front end — the host-side system service (Fig. 5).

Takes user-specified QoS policies (``fv`` command scripts or
programmatic :class:`~repro.tc.PolicyConfig` objects), validates them,
constructs the scheduling tree, and "populates configuration
parameters and filter rules into the SmartNIC shared memory" — in this
model, instantiates the labeling and scheduling functions that the NIC
back end (or the software reference runtime) executes.
"""

from __future__ import annotations

from typing import Optional

from ..tc.ast import PolicyConfig, parse_classid
from ..tc.classifier import Classifier
from ..tc.parser import parse_script
from ..tc.validate import validate_policy
from .labeling import LabelingFunction
from .sched_tree import SchedulingParams, SchedulingTree
from .scheduling import SchedulingFunction

__all__ = ["FlowValveFrontend"]


class FlowValveFrontend:
    """Builds and owns the back-end objects for one policy.

    Parameters
    ----------
    policy: a validated (or to-be-validated) policy configuration.
    link_rate_bps: physical line rate; supplies the root rate when the
        policy doesn't set one and caps everything else.
    params: scheduling function tunables.
    """

    def __init__(
        self,
        policy: PolicyConfig,
        link_rate_bps: Optional[float] = None,
        params: Optional[SchedulingParams] = None,
    ):
        validate_policy(policy)
        self.policy = policy
        self.link_rate_bps = link_rate_bps
        self.tree = SchedulingTree.from_policy(policy, link_rate_bps, params)
        self.classifier = Classifier(policy.filters)
        default_leaf = self._default_leaf_id()
        self.labeler = LabelingFunction(self.tree, self.classifier, default_leaf=default_leaf)
        self.scheduler = SchedulingFunction(self.tree)

    def attach_observability(self, tracer=None, metrics=None) -> None:
        """Wire a tracer and/or metrics registry into the back end.

        The NIC pipeline does this automatically from the simulator's
        sinks; software-mode users (CLI, tests) call it directly.
        Disabled or ``None`` sinks detach cleanly.
        """
        self.scheduler.attach_tracer(tracer)
        self.tree.register_metrics(metrics)

    @classmethod
    def from_script(
        cls,
        script: str,
        link_rate_bps: Optional[float] = None,
        params: Optional[SchedulingParams] = None,
    ) -> "FlowValveFrontend":
        """Parse an ``fv`` script and build the front end from it."""
        return cls(parse_script(script), link_rate_bps, params)

    # ------------------------------------------------------------------
    def _default_leaf_id(self) -> Optional[str]:
        """Resolve the root qdisc's ``default`` minor to a class id."""
        qdisc = self.policy.root_qdisc()
        if not qdisc.default:
            return None
        major, _ = parse_classid(qdisc.handle)
        return f"{major:x}:{qdisc.default:x}"

    def describe(self) -> str:
        """Multi-line status text (tree shape, rates, filter count)."""
        header = (
            f"FlowValve policy: {len(self.tree)} classes, "
            f"{len(self.classifier)} filters, "
            f"link={self.link_rate_bps or 'unset'}"
        )
        return header + "\n" + self.tree.describe()

    def class_rates(self) -> dict:
        """Snapshot of {classid: (θ, Γ)} for reporting."""
        return {n.classid: (n.theta, n.gamma_rate) for n in self.tree.nodes}
