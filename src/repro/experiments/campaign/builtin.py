"""Built-in campaign specs: one per paper figure/table, plus a smoke.

Importing this module (or the campaign package) populates the global
:data:`~repro.experiments.campaign.spec.REGISTRY`. Worker processes
import it too, so a task is fully described by ``(spec name, params)``
regardless of the multiprocessing start method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ...stats.report import Table
from .. import ablations, cpu_cores, crossbar, fabric, fig03, fig11, fig13, fig14, hotpath, megaflow, tcp_realism
from ..base import ScaledSetup
from .spec import REGISTRY, register

__all__ = ["SmokeResult", "smoke_sleep"]


# ----------------------------------------------------------------------
# smoke spec (tiny, deterministic; used by tests and the CI smoke job)
# ----------------------------------------------------------------------
@dataclass
class SmokeResult:
    """Minimal unified-API result for harness smokes."""

    label: str
    value: float

    def to_table(self) -> Table:
        table = Table("campaign smoke", ["label", "value"])
        table.add_row(self.label, self.value)
        return table


def smoke_sleep(
    setup: Optional[ScaledSetup] = None,
    *,
    seconds: float = 0.2,
    label: str = "sleep",
) -> SmokeResult:
    """Sleep for *seconds* — exercises worker concurrency and timeouts
    without burning CPU (sleeping tasks overlap even on one core)."""
    del setup
    time.sleep(seconds)
    return SmokeResult(label=label, value=seconds)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def _register_builtins() -> None:
    if "fig03" in REGISTRY:  # idempotent under re-import
        return
    register(
        "fig03", fig03.run,
        description="Fig. 3 — kernel HTB mis-enforcing the motivation policy",
        schema={"series": dict},
    )
    for variant, blurb in (
        ("a", "motivation policy at 10 Gbit"),
        ("b", "fair queueing at 40 Gbit"),
        ("c", "weighted fair queueing at 40 Gbit"),
    ):
        register(
            f"fig11{variant}", fig11.run,
            description=f"Fig. 11({variant}) — FlowValve, {blurb}",
            defaults={"variant": variant},
            schema={"series": dict},
        )
    register(
        "fig13", fig13.run,
        description="Fig. 13 — maximum throughput (Mpps) vs packet size",
        schema={"rows": list},
    )
    register(
        "fig14", fig14.run,
        description="Fig. 14 — one-way delay under fair queueing",
        schema={"rows": list},
    )
    register(
        "cpu_cores", cpu_cores.run,
        description="§V-B — CPU cores consumed by scheduling at matched load",
        schema={"rows": list},
    )
    register(
        "lock_ablation", ablations.lock_modes,
        description="A-LOCK — 64 B capacity per update-locking discipline (Fig. 7)",
        schema={"results": list},
    )
    register(
        "propagation", ablations.propagation,
        description="A-DELAY — token-rate propagation down a priority chain (Fig. 10)",
        schema={"results": list},
    )
    register(
        "interval_sensitivity", ablations.interval_sensitivity,
        description="A-INTERVAL — worst-window overshoot vs update interval ΔT",
        schema={"overshoot": dict},
    )
    register(
        "tcp_realism", tcp_realism.run,
        description="TCP realism — policy targets vs TCP-achieved shares",
        defaults={"regime": "shared"},
        schema={"targets": dict, "achieved": dict},
    )
    register(
        "hotpath", hotpath.run,
        description="E-PERF — DES kernel events/sec + packets/sec microbenchmark",
        schema={"events": int, "packets": int},
    )
    register(
        "sched_crossbar", crossbar.run,
        description="Crossbar — any registered scheduler × workload on the NIC model",
        grid={"scheduler": ["flowvalve", "wfq"], "workload": ["motivation"]},
        defaults={"duration": 20.0, "backend": "pifo"},
        schema={"series": dict},
    )
    register(
        "megaflow", megaflow.run,
        description="E-MEGAFLOW — million-flow batched trace engine on the fluid lane",
        defaults={"duration": megaflow.DEFAULT_DURATION},
        schema={"flows": int, "perf": None},
    )
    register(
        "fabric_sweep", fabric.run,
        description="E-FABRIC — 64-host ring fabric over the sharded engine",
        grid={"shards": [1, 2, 4]},
        defaults={"hosts": 64, "duration": 2.0},
        schema={"pkt_per_sec": float, "total_packets": int},
    )
    register(
        "smoke_sleep", smoke_sleep,
        description="harness smoke: sleep a configurable number of seconds",
        schema={"value": float},
    )


_register_builtins()
