"""The parallel campaign runner.

Fans ``(spec, params)`` tasks out over a pool of worker *processes*
(one process per task, at most ``workers`` alive at once) so that:

* a hung task can be killed at its wall-clock deadline — terminating a
  process is reliable where cancelling a thread is not;
* the GIL never serialises two simulations;
* a crashed task (segfault, OOM-kill) degrades to one ``failed``
  record instead of taking the campaign down.

Every task runs once: a task is a seeded simulation, so one that
raises would raise again on a re-run. Results are cached
content-addressed (see :mod:`.cache`) so re-running a campaign
recomputes only what changed; every terminal task streams one JSONL
record to the manifest (see :mod:`.manifest`).

``workers=0`` runs tasks inline in the calling process — no isolation
and no deadline, so a timeout is rejected there — but convenient under
a debugger.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ...errors import CampaignError
from ...stats.report import Table
from .cache import ResultCache, source_digest, task_key
from .manifest import ManifestWriter, TaskRecord
from .spec import REGISTRY

__all__ = ["CampaignTask", "CampaignReport", "CampaignRunner"]

#: Seconds the pool loop sleeps when no worker finished in a pass.
_POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work: a spec name plus resolved params."""

    spec: str
    params: Mapping[str, Any] = field(default_factory=dict)
    task_id: str = ""

    def with_id(self, index: int) -> "CampaignTask":
        if self.task_id:
            return self
        label = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        suffix = f"[{label}]" if label else f"#{index}"
        return CampaignTask(self.spec, self.params, f"{self.spec}{suffix}")


@dataclass
class CampaignReport:
    """Everything a finished campaign produced."""

    records: List[TaskRecord] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    manifest_path: Optional[str] = None

    @property
    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for record in self.records:
            tally[record.status] = tally.get(record.status, 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        return all(r.status in ("ok", "cached") for r in self.records)

    @property
    def cache_hit_rate(self) -> float:
        if not self.records:
            return 0.0
        cached = sum(1 for r in self.records if r.status == "cached")
        return cached / len(self.records)

    def summary_table(self) -> Table:
        table = Table(
            f"campaign — {len(self.records)} tasks in {self.wall_seconds:.1f}s wall",
            ["task", "status", "duration(s)", "worker"],
        )
        for record in self.records:
            table.add_row(
                record.task_id,
                record.status,
                f"{record.duration:.2f}",
                record.worker if record.worker is not None else "-",
            )
        return table


def _task_entry(conn, spec_name: str, params: Dict[str, Any]) -> None:
    """Worker-process body: resolve the spec, run it, ship the result.

    Runs in a fresh process; the registry is re-populated by importing
    the campaign package (a no-op under the default ``fork`` start
    method, where the parent's registrations are inherited).
    """
    try:
        from . import builtin  # noqa: F401 — ensures builtins under spawn
        spec = REGISTRY.get(spec_name)
        start = time.perf_counter()
        result = spec.execute(params)
        spec.validate(result)
        conn.send(("ok", result, time.perf_counter() - start))
    except BaseException as exc:  # noqa: BLE001 — one task, one record
        conn.send(("failed", f"{type(exc).__name__}: {exc}", 0.0))
    finally:
        conn.close()


@dataclass
class _Attempt:
    """A live worker process and the task it is executing."""

    task: CampaignTask
    process: multiprocessing.process.BaseProcess
    conn: Any
    started: float  # monotonic, for the duration and the deadline
    started_wall: float  # epoch seconds, for the manifest
    deadline: Optional[float]


class CampaignRunner:
    """Run campaign tasks over a bounded worker-process pool."""

    def __init__(
        self,
        workers: int = 1,
        *,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        manifest_path: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise CampaignError(f"workers must be >= 0, got {workers}")
        if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
            raise CampaignError(
                f"timeout must be a positive, finite number of seconds, got {timeout}"
            )
        if timeout is not None and workers == 0:
            # An inline task runs in this process and cannot be killed
            # at a deadline; accepting the budget would ignore it.
            raise CampaignError(
                "--timeout needs worker processes: with workers=0 tasks run "
                "inline and have no deadline"
            )
        self.workers = workers
        self.timeout = timeout
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.manifest_path = manifest_path
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------
    # task construction
    # ------------------------------------------------------------------
    def tasks_for(
        self,
        spec_names: Sequence[str],
        overrides: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> List[CampaignTask]:
        """Expand registered specs (+ grid axis overrides) into tasks.

        An override key of the form ``spec.axis`` applies only to that
        spec — the way to give per-spec parameters when one campaign
        fans out multiple specs; bare keys apply to every spec.
        """
        shared: Dict[str, Sequence[Any]] = {}
        scoped: Dict[str, Dict[str, Sequence[Any]]] = {}
        for key, values in (overrides or {}).items():
            if "." in key:
                spec_part, axis = key.split(".", 1)
                scoped.setdefault(spec_part, {})[axis] = values
            else:
                shared[key] = values
        unknown = set(scoped) - set(spec_names)
        if unknown:
            raise CampaignError(
                f"scoped override(s) for spec(s) not in this campaign: "
                f"{', '.join(sorted(unknown))}"
            )
        tasks: List[CampaignTask] = []
        for name in spec_names:
            spec = REGISTRY.get(name)
            merged = {**shared, **scoped.get(name, {})}
            for index, params in enumerate(spec.param_sets(merged)):
                tasks.append(CampaignTask(spec.name, params).with_id(index))
        return tasks

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[CampaignTask]) -> CampaignReport:
        """Execute *tasks*; returns the report after the last one lands."""
        tasks = [t.with_id(i) for i, t in enumerate(tasks)]
        seen: set = set()
        for task in tasks:
            if task.task_id in seen:
                raise CampaignError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
        digest = source_digest() if self.cache is not None else ""
        report = CampaignReport(manifest_path=self.manifest_path)
        manifest = ManifestWriter(self.manifest_path) if self.manifest_path else None
        wall_start = time.perf_counter()
        try:
            if self.workers == 0:
                self._run_inline(tasks, digest, report, manifest)
            else:
                self._run_pool(tasks, digest, report, manifest)
        finally:
            if manifest is not None:
                manifest.close()
        report.wall_seconds = time.perf_counter() - wall_start
        # Manifest order follows completion; report order follows input.
        order = {t.task_id: i for i, t in enumerate(tasks)}
        report.records.sort(key=lambda r: order.get(r.task_id, len(order)))
        return report

    # -- shared bookkeeping --------------------------------------------
    def _key_for(self, task: CampaignTask, digest: str) -> str:
        return task_key(task.spec, task.params, digest) if self.cache is not None else ""

    def _finish(
        self,
        report: CampaignReport,
        manifest: Optional[ManifestWriter],
        record: TaskRecord,
        result: Any = None,
    ) -> None:
        report.records.append(record)
        if result is not None:
            report.results[record.task_id] = result
        if manifest is not None:
            manifest.write(record)

    def _try_cache(
        self,
        task: CampaignTask,
        key: str,
        report: CampaignReport,
        manifest: Optional[ManifestWriter],
    ) -> bool:
        if self.cache is None:
            return False
        hit, value = self.cache.get(key)
        if not hit:
            return False
        now = time.time()
        self._finish(report, manifest, TaskRecord(
            task_id=task.task_id, spec=task.spec, params=dict(task.params),
            status="cached", duration=0.0, worker=None,
            cache_key=key, started=now, finished=now,
        ), value)
        return True

    def _store(self, task: CampaignTask, key: str, value: Any, duration: float) -> None:
        if self.cache is None:
            return
        self.cache.put(key, value, meta={
            "spec": task.spec,
            "params": dict(task.params),
            "duration": duration,
            "result_type": type(value).__name__,
        })

    # -- inline mode ----------------------------------------------------
    def _run_inline(
        self,
        tasks: Sequence[CampaignTask],
        digest: str,
        report: CampaignReport,
        manifest: Optional[ManifestWriter],
    ) -> None:
        for task in tasks:
            key = self._key_for(task, digest)
            if self._try_cache(task, key, report, manifest):
                continue
            spec = REGISTRY.get(task.spec)
            started = time.time()
            begin = time.perf_counter()
            error = None
            try:
                result = spec.execute(task.params)
                spec.validate(result)
            except Exception as exc:  # noqa: BLE001 — one task, one record
                result, error = None, f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - begin
            if error is None:
                self._store(task, key, result, duration)
            self._finish(report, manifest, TaskRecord(
                task_id=task.task_id, spec=task.spec, params=dict(task.params),
                status="ok" if error is None else "failed",
                duration=duration, cache_key=key, error=error,
                started=started, finished=time.time(),
            ), result)

    # -- pool mode ------------------------------------------------------
    def _spawn(self, task: CampaignTask) -> _Attempt:
        spec = REGISTRY.get(task.spec)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_task_entry,
            args=(child_conn, task.spec, dict(task.params)),
            daemon=True,
            name=f"fv-campaign-{task.task_id}",
        )
        process.start()
        child_conn.close()
        budget = self.timeout if self.timeout is not None else spec.timeout
        now = time.monotonic()
        return _Attempt(
            task=task,
            process=process,
            conn=parent_conn,
            started=now,
            started_wall=time.time(),
            deadline=(now + budget) if budget is not None else None,
        )

    def _run_pool(
        self,
        tasks: Sequence[CampaignTask],
        digest: str,
        report: CampaignReport,
        manifest: Optional[ManifestWriter],
    ) -> None:
        keys: Dict[str, str] = {}
        pending: Deque[CampaignTask] = deque()
        for task in tasks:
            key = self._key_for(task, digest)
            keys[task.task_id] = key
            if not self._try_cache(task, key, report, manifest):
                pending.append(task)
        running: List[_Attempt] = []
        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    running.append(self._spawn(pending.popleft()))
                if not self._reap(running, keys, report, manifest):
                    time.sleep(_POLL_INTERVAL)
        finally:
            for attempt in running:  # interrupted: leave no orphans
                attempt.process.terminate()
                attempt.process.join()

    def _reap(
        self,
        running: List[_Attempt],
        keys: Dict[str, str],
        report: CampaignReport,
        manifest: Optional[ManifestWriter],
    ) -> bool:
        """Collect finished/expired attempts; returns True on progress."""
        progressed = False
        for attempt in list(running):
            task = attempt.task
            outcome: Optional[Tuple[str, Any, float]] = None
            if attempt.conn.poll():
                try:
                    outcome = attempt.conn.recv()
                except (EOFError, OSError):
                    outcome = ("failed", "worker died before reporting a result", 0.0)
            elif not attempt.process.is_alive():
                outcome = ("failed", f"worker exited with code {attempt.process.exitcode}", 0.0)
            elif attempt.deadline is not None and time.monotonic() > attempt.deadline:
                attempt.process.terminate()
                elapsed = time.monotonic() - attempt.started
                outcome = ("timeout", f"wall-clock deadline exceeded after {elapsed:.2f}s", 0.0)
            if outcome is None:
                continue
            status, payload, worker_duration = outcome
            attempt.process.join()
            attempt.conn.close()
            running.remove(attempt)
            progressed = True
            duration = time.monotonic() - attempt.started
            key = keys[task.task_id]
            if status == "ok":
                self._store(task, key, payload, worker_duration or duration)
            self._finish(report, manifest, TaskRecord(
                task_id=task.task_id, spec=task.spec, params=dict(task.params),
                status=status, duration=duration,
                worker=attempt.process.pid, cache_key=key,
                error=None if status == "ok" else str(payload),
                started=attempt.started_wall, finished=time.time(),
            ), payload if status == "ok" else None)
        return progressed
