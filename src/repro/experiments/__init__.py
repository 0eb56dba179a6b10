"""The evaluation harness: one module per paper figure/table.

Each experiment builds a self-contained simulated testbed (host apps,
scheduler under test, wire, receiver), runs it, and returns a typed
result that the benchmark suite renders as the same rows/series the
paper reports. See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.

Every figure module exposes the unified entry-point shape
``run(setup: ScaledSetup, **spec_params) -> Result`` where the result
exposes ``to_table()`` (DESIGN.md §9). The figure modules load on
first use of one of their names. The :mod:`.campaign` subpackage
(imported explicitly) registers every entry point as an
:class:`ExperimentSpec` and runs parameter grids in parallel.
"""

from .._lazy import lazy_exports
from .base import ScaledSetup, TimelineResult, run_kernel_htb_timeline
from .policies import (
    fair_policy,
    motivation_policy,
    motivation_htb_tree,
    weighted_policy,
)

__all__ = [
    "ScaledSetup",
    "TimelineResult",
    "run_kernel_htb_timeline",
    "fair_policy",
    "motivation_policy",
    "motivation_htb_tree",
    "weighted_policy",
    "fair_queueing_demands",
    "motivation_demands",
    "weighted_demands",
    "FabricResult",
    "MegaflowResult",
    "Fig13Result",
    "Fig13Row",
    "Fig14Result",
    "Fig14Row",
    "CpuResult",
    "CpuRow",
    "IntervalSensitivityResult",
    "LockAblationResult",
    "PropagationDelayResult",
    "TcpRealismResult",
]

# Each figure module loads on first use, so importing one experiment
# compiles none of the others (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".workloads": (
        "fair_queueing_demands",
        "motivation_demands",
        "weighted_demands",
    ),
    ".fabric": ("FabricResult",),
    ".megaflow": ("MegaflowResult",),
    ".fig13": ("Fig13Result", "Fig13Row"),
    ".fig14": ("Fig14Result", "Fig14Row"),
    ".cpu_cores": ("CpuResult", "CpuRow"),
    ".ablations": (
        "IntervalSensitivityResult",
        "LockAblationResult",
        "PropagationDelayResult",
    ),
    ".tcp_realism": ("TcpRealismResult",),
})
