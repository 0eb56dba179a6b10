"""Campaign manifests: one JSONL record per finished task.

The manifest is the campaign's flight recorder — statuses, durations,
worker pids, and cache keys stream to disk as each task lands, so a
crashed or interrupted campaign still leaves an auditable trail and
``fv campaign status`` works on live files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ...errors import CampaignError

__all__ = ["STATUSES", "TaskRecord", "ManifestWriter", "read_manifest"]

#: Terminal task states a manifest line may carry.
STATUSES = ("ok", "cached", "timeout", "failed")


@dataclass
class TaskRecord:
    """One finished campaign task."""

    task_id: str
    spec: str
    params: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    duration: float = 0.0
    worker: Optional[int] = None
    cache_key: str = ""
    error: Optional[str] = None
    started: float = 0.0
    finished: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=repr)

    @classmethod
    def from_json(cls, line: str) -> "TaskRecord":
        payload = json.loads(line)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401 — py39 compat
        return cls(**{k: v for k, v in payload.items() if k in known})


class ManifestWriter:
    """Append-as-you-go JSONL writer (line-buffered, crash-tolerant)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w")
        self.count = 0

    def write(self, record: TaskRecord) -> None:
        if record.status not in STATUSES:
            raise CampaignError(
                f"manifest record for {record.task_id!r} has invalid "
                f"status {record.status!r}; expected one of {STATUSES}"
            )
        self._fh.write(record.to_json() + "\n")
        self._fh.flush()
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_manifest(path: str) -> List[TaskRecord]:
    """Parse a manifest back into records (round-trip of
    :meth:`TaskRecord.to_json`)."""
    records: List[TaskRecord] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TaskRecord.from_json(line))
            except (json.JSONDecodeError, TypeError) as exc:
                raise CampaignError(
                    f"{path}:{lineno}: malformed manifest line: {exc}"
                ) from None
    return records
