"""The evaluation harness: one module per paper figure/table.

Each experiment builds a self-contained simulated testbed (host apps,
scheduler under test, wire, receiver), runs it, and returns a typed
result that the benchmark suite renders as the same rows/series the
paper reports. See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.

Every figure module exposes the unified entry-point shape
``run(setup: ScaledSetup, **spec_params) -> Result`` where the result
exposes ``to_table()`` (DESIGN.md §9); the historical ``run_*`` names
remain as thin deprecation shims returning their original shapes. The
figure modules load on first use of one of their names. The
:mod:`.campaign` subpackage (imported explicitly) registers every
entry point as an :class:`ExperimentSpec` and runs parameter grids in
parallel.
"""

from .._lazy import lazy_exports
from .base import (
    ScaledSetup,
    TimelineResult,
    run_flowvalve_timeline,
    run_kernel_htb_timeline,
)
from .policies import (
    fair_policy,
    motivation_policy,
    motivation_htb_tree,
    weighted_policy,
)

__all__ = [
    "ScaledSetup",
    "TimelineResult",
    "run_flowvalve_timeline",
    "run_kernel_htb_timeline",
    "fair_policy",
    "motivation_policy",
    "motivation_htb_tree",
    "weighted_policy",
    "fair_queueing_demands",
    "motivation_demands",
    "weighted_demands",
    "FabricResult",
    "run_fabric_sweep",
    "MegaflowResult",
    "run_megaflow",
    "run_fig03",
    "run_fig11a",
    "run_fig11b",
    "run_fig11c",
    "Fig13Result",
    "Fig13Row",
    "run_fig13",
    "Fig14Result",
    "Fig14Row",
    "run_fig14",
    "CpuResult",
    "CpuRow",
    "run_cpu_comparison",
    "IntervalSensitivityResult",
    "LockAblationResult",
    "PropagationDelayResult",
    "run_lock_mode_ablation",
    "run_propagation_delay",
    "run_update_interval_sensitivity",
    "TcpRealismResult",
    "run_tcp_realism_shared",
    "tcp_realism_table",
]

# Each figure module loads on first use, so importing one experiment
# compiles none of the others (DESIGN.md §7, "Set-up").
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".workloads": (
        "fair_queueing_demands",
        "motivation_demands",
        "weighted_demands",
    ),
    ".fabric": ("FabricResult", "run_fabric_sweep"),
    ".megaflow": ("MegaflowResult", "run_megaflow"),
    ".fig03": ("run_fig03",),
    ".fig11": ("run_fig11a", "run_fig11b", "run_fig11c"),
    ".fig13": ("Fig13Result", "Fig13Row", "run_fig13"),
    ".fig14": ("Fig14Result", "Fig14Row", "run_fig14"),
    ".cpu_cores": ("CpuResult", "CpuRow", "run_cpu_comparison"),
    ".ablations": (
        "IntervalSensitivityResult",
        "LockAblationResult",
        "PropagationDelayResult",
        "run_lock_mode_ablation",
        "run_propagation_delay",
        "run_update_interval_sensitivity",
    ),
    ".tcp_realism": (
        "TcpRealismResult",
        "run_tcp_realism_shared",
        "tcp_realism_table",
    ),
})
