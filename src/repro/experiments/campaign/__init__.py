"""Parallel campaign orchestration over the experiment harness.

The paper's evaluation is a *grid* of runs — schedulers × scales ×
seeds × packet sizes. This package turns each figure module's unified
``run(setup, **params) -> Result`` entry point into a declarative
:class:`ExperimentSpec`, expands parameter grids into tasks, and
executes them on a worker-process pool with per-task timeouts, a
content-addressed result cache, and a JSONL manifest.
See DESIGN.md §9 and the ``fv campaign`` CLI.

Importing this package registers the built-in specs (one per figure,
plus a harness smoke) in :data:`REGISTRY`.
"""

from .cache import ResultCache, source_digest, task_key
from .manifest import STATUSES, ManifestWriter, TaskRecord, read_manifest
from .runner import CampaignReport, CampaignRunner, CampaignTask
from .spec import REGISTRY, SETUP_KEYS, ExperimentSpec, SpecRegistry, register
from . import builtin  # noqa: F401 — populates REGISTRY as a side effect
from .builtin import SmokeResult

__all__ = [
    "REGISTRY",
    "SETUP_KEYS",
    "STATUSES",
    "CampaignReport",
    "CampaignRunner",
    "CampaignTask",
    "ExperimentSpec",
    "ManifestWriter",
    "ResultCache",
    "SmokeResult",
    "SpecRegistry",
    "TaskRecord",
    "read_manifest",
    "register",
    "source_digest",
    "task_key",
]
