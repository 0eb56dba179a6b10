"""FlowValve: the paper's primary contribution.

The back end of Figure 5 — everything that runs on the SmartNIC data
plane, implemented as pure-Python algorithm objects that can execute
either standalone (unit tests, software mode) or embedded in the
cycle-cost NIC model (:mod:`repro.nic`):

* :mod:`.token_bucket` — token buckets with the atomic ``meter``
  primitive (Fig. 8) and shadow buckets for lending (Eq. 6);
* :mod:`.rate_rules` — the condition templates deriving per-class token
  rates (Eq. 2, 4, 5 and §IV-C3);
* :mod:`.sched_tree` — the scheduling tree built from a validated
  :class:`~repro.tc.PolicyConfig`;
* :mod:`.labels` — hierarchy/borrowing QoS labels (§IV-B);
* :mod:`.flow_cache` — the exact-match flow cache (Observation 2);
* :mod:`.labeling` — the labeling function (classify + label);
* :mod:`.scheduling` — the scheduling function, Algorithm 1;
* :mod:`.frontend` — the host-side ``fv`` service;
* :mod:`.valve` — the :class:`FlowValve` facade tying it together.
"""

from .._lazy import lazy_exports
from .token_bucket import TokenBucket, MeterColor
from .labels import QosLabel
from .rate_rules import (
    RateRule,
    FixedRate,
    FullParentRate,
    WeightedShare,
    PriorityResidual,
    GuaranteedResidual,
    CeilCap,
    RuleContext,
)
from .sched_tree import ClassNode, SchedulingTree
from .flow_cache import ExactMatchCache
from .labeling import LabelingFunction
from .scheduling import SchedulingFunction, Verdict, SchedulingParams
from .frontend import FlowValveFrontend

__all__ = [
    "TokenBucket",
    "MeterColor",
    "QosLabel",
    "RateRule",
    "FixedRate",
    "FullParentRate",
    "WeightedShare",
    "PriorityResidual",
    "GuaranteedResidual",
    "CeilCap",
    "RuleContext",
    "ClassNode",
    "SchedulingTree",
    "ExactMatchCache",
    "LabelingFunction",
    "SchedulingFunction",
    "Verdict",
    "SchedulingParams",
    "FlowValveFrontend",
    "FlowValve",
]

# The software-mode facade loads on first use: the NIC data path runs
# the functions above directly (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".valve": ("FlowValve",),
})
