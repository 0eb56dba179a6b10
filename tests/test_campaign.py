"""Tests for the campaign layer: specs, registry, cache, runner, CLI.

Long-running pool behaviour (timeouts, failures) is exercised with the
``smoke_sleep`` spec — sub-second sleeps, no simulation — so the whole
file stays fast; one CLI test runs three short simulations.
"""

import json
import os

import pytest

from repro.errors import CampaignError
from repro.experiments.campaign import (
    REGISTRY,
    CampaignRunner,
    CampaignTask,
    ExperimentSpec,
    ManifestWriter,
    ResultCache,
    SmokeResult,
    SpecRegistry,
    TaskRecord,
    read_manifest,
    register,
    source_digest,
    task_key,
)
from repro.cli import main


# ----------------------------------------------------------------------
# specs & registry
# ----------------------------------------------------------------------
class TestSpecRegistry:
    def test_builtin_specs_registered(self):
        for name in ("fig03", "fig11a", "fig13", "fig14", "cpu_cores",
                     "lock_ablation", "propagation", "interval_sensitivity",
                     "tcp_realism", "hotpath", "megaflow", "fabric_sweep",
                     "smoke_sleep"):
            assert name in REGISTRY

    def test_register_and_get(self):
        registry = SpecRegistry()
        spec = register("x", lambda setup: None, registry=registry)
        assert registry.get("x") is spec
        assert registry.names() == ["x"]

    def test_duplicate_name_rejected(self):
        registry = SpecRegistry()
        register("x", lambda setup: None, registry=registry)
        with pytest.raises(CampaignError, match="already registered"):
            register("x", lambda setup: None, registry=registry)
        register("x", lambda setup: None, registry=registry, replace=True)

    def test_unknown_spec_names_known_ones(self):
        with pytest.raises(CampaignError, match="fig13"):
            REGISTRY.get("no_such_spec")


class TestParamGrid:
    def test_cartesian_product_deterministic_order(self):
        spec = ExperimentSpec("g", lambda setup: None,
                              grid={"b": [1, 2], "a": ["x"]})
        assert spec.param_sets() == [
            {"a": "x", "b": 1},
            {"a": "x", "b": 2},
        ]

    def test_overrides_replace_whole_axis(self):
        spec = ExperimentSpec("g", lambda setup: None, grid={"a": [1]})
        sets = spec.param_sets({"a": [7, 8], "b": [True]})
        assert sets == [{"a": 7, "b": True}, {"a": 8, "b": True}]

    def test_empty_axis_rejected(self):
        spec = ExperimentSpec("g", lambda setup: None)
        with pytest.raises(CampaignError, match="non-empty list"):
            spec.param_sets({"a": []})

    def test_setup_keys_split_from_kwargs(self):
        captured = {}

        def entry(setup, **kwargs):
            captured["setup"] = setup
            captured["kwargs"] = kwargs
            return SmokeResult("x", 0.0)

        spec = ExperimentSpec("g", entry)
        spec.execute({"seed": 5, "scale": 10.0, "duration": 2.0})
        assert captured["setup"].seed == 5
        assert captured["setup"].scale == 10.0
        assert captured["kwargs"] == {"duration": 2.0}

    def test_validate_requires_to_table_and_schema(self):
        spec = ExperimentSpec("g", lambda setup: None,
                              schema={"value": float})
        with pytest.raises(CampaignError, match="to_table"):
            spec.validate(object())
        spec.validate(SmokeResult("x", 1.0))
        with pytest.raises(CampaignError, match="expected float"):
            spec.validate(SmokeResult("x", "not-a-float"))


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_key_changes_with_params_and_digest(self):
        base = task_key("s", {"a": 1}, "d1")
        assert task_key("s", {"a": 1}, "d1") == base
        assert task_key("s", {"a": 2}, "d1") != base
        assert task_key("s", {"a": 1}, "d2") != base
        assert task_key("t", {"a": 1}, "d1") != base

    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        hit, _ = cache.get("deadbeef")
        assert not hit
        cache.put("deadbeef", {"x": 1}, meta={"spec": "s"})
        hit, value = cache.get("deadbeef")
        assert hit and value == {"x": 1}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put("deadbeef", {"x": 1}, meta={})
        pickles = list((tmp_path / "cache").rglob("*.pkl"))
        pickles[0].write_bytes(b"not a pickle")
        hit, _ = cache.get("deadbeef")
        assert not hit

    def test_source_digest_stable(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 64


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        records = [
            TaskRecord(task_id="a", spec="s", params={"k": 1}, status="ok",
                       duration=0.5, worker=123),
            TaskRecord(task_id="b", spec="s", status="timeout",
                       error="deadline"),
        ]
        with ManifestWriter(path) as writer:
            for record in records:
                writer.write(record)
        loaded = read_manifest(path)
        assert loaded == records
        # and every line is plain JSON
        lines = open(path).read().splitlines()
        assert all(json.loads(line)["spec"] == "s" for line in lines)

    def test_line_with_retired_attempts_field_reads_back(self, tmp_path):
        # Manifests written while records carried an ``attempts`` count
        # still load: unknown keys are dropped.
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"task_id": "a", "spec": "s", "status": "ok", "attempts": 1, '
            '"duration": 0.5}\n'
        )
        [record] = read_manifest(str(path))
        assert record == TaskRecord(task_id="a", spec="s", duration=0.5)

    def test_invalid_status_rejected(self, tmp_path):
        with ManifestWriter(str(tmp_path / "m.jsonl")) as writer:
            with pytest.raises(CampaignError, match="invalid"):
                writer.write(TaskRecord(task_id="a", spec="s", status="weird"))

    def test_malformed_line_reported_with_lineno(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"task_id": "a", "spec": "s"}\n{oops\n')
        with pytest.raises(CampaignError, match="2"):
            read_manifest(str(path))


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunnerPool:
    def test_pool_runs_all_tasks_with_workers(self, tmp_path):
        runner = CampaignRunner(workers=2,
                                manifest_path=str(tmp_path / "m.jsonl"))
        tasks = runner.tasks_for(
            ["smoke_sleep"],
            overrides={"seconds": [0.05], "label": ["a", "b", "c"]},
        )
        report = runner.run(tasks)
        assert report.ok
        assert report.counts == {"ok": 3}
        assert all(r.worker is not None for r in report.records)
        assert len(read_manifest(str(tmp_path / "m.jsonl"))) == 3
        # results aggregate through the unified to_table() contract
        table = report.results[report.records[0].task_id].to_table()
        assert "campaign smoke" in table.render()

    def test_cache_hit_on_rerun_and_miss_on_param_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        def runner():
            return CampaignRunner(workers=0, cache_dir=cache_dir)

        overrides = {"seconds": [0.01], "label": ["x", "y"]}
        first = runner().run(runner().tasks_for(["smoke_sleep"], overrides))
        assert first.counts == {"ok": 2}
        again = runner().run(runner().tasks_for(["smoke_sleep"], overrides))
        assert again.counts == {"cached": 2}
        assert again.cache_hit_rate == 1.0
        # cached results still land in the report
        assert all(isinstance(v, SmokeResult) for v in again.results.values())
        changed = runner().run(runner().tasks_for(
            ["smoke_sleep"], {"seconds": [0.02], "label": ["x", "y"]},
        ))
        assert changed.counts == {"ok": 2}  # param change = cache miss

    def test_timeout_kills_hung_worker(self, tmp_path):
        runner = CampaignRunner(workers=1, timeout=0.3,
                                manifest_path=str(tmp_path / "m.jsonl"))
        report = runner.run(runner.tasks_for(
            ["smoke_sleep"], {"seconds": [30.0]},
        ))
        assert not report.ok
        record = report.records[0]
        assert record.status == "timeout"
        assert "deadline" in record.error
        assert record.duration < 5.0  # killed, not waited out
        loaded = read_manifest(str(tmp_path / "m.jsonl"))
        assert loaded[0].status == "timeout"

    @pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pool"])
    def test_raising_task_fails_after_one_attempt(self, tmp_path, workers):
        # time.sleep(-1) raises ValueError: a task that raises is
        # recorded failed at once, in either mode, and never re-run.
        runner = CampaignRunner(workers=workers,
                                manifest_path=str(tmp_path / "m.jsonl"))
        report = runner.run(runner.tasks_for(["smoke_sleep"], {"seconds": [-1]}))
        assert not report.ok
        [record] = report.records
        assert record.status == "failed"
        assert record.error.startswith("ValueError")
        assert read_manifest(str(tmp_path / "m.jsonl")) == [record]

    def test_scoped_overrides_apply_per_spec(self):
        runner = CampaignRunner(workers=0)
        tasks = runner.tasks_for(
            ["smoke_sleep", "hotpath"],
            overrides={
                "smoke_sleep.seconds": [0.01],
                "hotpath.duration": [2.0],
                "seed": [5],  # bare key: every spec
            },
        )
        by_spec = {t.spec: t.params for t in tasks}
        assert by_spec["smoke_sleep"] == {"seconds": 0.01, "seed": 5}
        assert by_spec["hotpath"] == {"duration": 2.0, "seed": 5}

    def test_scoped_override_for_absent_spec_rejected(self):
        runner = CampaignRunner(workers=0)
        with pytest.raises(CampaignError, match="not in this campaign"):
            runner.tasks_for(["smoke_sleep"], {"hotpath.duration": [2.0]})

    def test_duplicate_task_ids_rejected(self):
        runner = CampaignRunner(workers=0)
        task = CampaignTask("smoke_sleep", {"seconds": 0.01}, "same-id")
        with pytest.raises(CampaignError, match="duplicate task id"):
            runner.run([task, task])

    def test_invalid_workers_rejected(self):
        with pytest.raises(CampaignError, match="workers"):
            CampaignRunner(workers=-1)

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0, 0.0, float("inf")])
    def test_invalid_timeout_rejected(self, timeout):
        # A NaN deadline never expires and a negative one expires at
        # once: both used to run the campaign anyway.
        with pytest.raises(CampaignError, match="timeout"):
            CampaignRunner(workers=1, timeout=timeout)

    def test_inline_timeout_rejected(self):
        # Inline tasks run in the calling process and cannot be killed
        # at a deadline: an accepted budget would be ignored silently.
        with pytest.raises(CampaignError, match="--timeout"):
            CampaignRunner(workers=0, timeout=0.2)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCampaignCli:
    def test_list_names_all_specs(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_run_writes_manifest_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "smoke_sleep",
            "--workers", "2", "--set", "seconds=0.05", "--set", "label=a,b",
            "--manifest", "m.jsonl", "--cache-dir", "cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 task(s)" in out and "status" in out
        records = read_manifest(str(tmp_path / "m.jsonl"))
        assert {r.status for r in records} == {"ok"}
        # second run is served from cache
        code = main([
            "campaign", "run", "smoke_sleep",
            "--workers", "2", "--set", "seconds=0.05", "--set", "label=a,b",
            "--manifest", "m.jsonl", "--cache-dir", "cache",
        ])
        assert code == 0
        assert "cache hit rate: 100%" in capsys.readouterr().out

    def test_status_reads_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        with ManifestWriter(path) as writer:
            writer.write(TaskRecord(task_id="t", spec="s", status="ok"))
        assert main(["campaign", "status", "--manifest", path]) == 0
        assert "ok=1" in capsys.readouterr().out

    def test_status_flags_failures(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        with ManifestWriter(path) as writer:
            writer.write(TaskRecord(task_id="t", spec="s", status="failed",
                                    error="boom"))
        assert main(["campaign", "status", "--manifest", path]) == 1

    def test_run_unknown_spec_fails_cleanly(self, capsys):
        assert main(["campaign", "run", "nope", "--workers", "0",
                     "--no-cache", "--manifest", os.devnull]) == 1
        assert "unknown experiment spec" in capsys.readouterr().err

    def test_set_flag_parsing(self):
        from repro.cli import _parse_set_overrides

        overrides = _parse_set_overrides(
            ["seed=11,12", "sizes=[1518,512]", "name=abc"])
        assert overrides["seed"] == [11, 12]
        assert overrides["sizes"] == [[1518, 512]]  # one list-valued point
        assert overrides["name"] == ["abc"]

    def test_parenthesised_value_coerces_to_a_tuple(self):
        from repro.cli import _coerce_value

        assert _coerce_value("(0.1,2)") == (0.1, 2)
        value = _coerce_value("(0.1,nan)")
        assert isinstance(value, tuple) and value[0] == 0.1
        assert value[1] != value[1]  # NaN

    def test_set_flag_errors(self):
        from repro.cli import _parse_set_overrides

        with pytest.raises(SystemExit, match="KEY=V1"):
            _parse_set_overrides(["nonsense"])
        with pytest.raises(SystemExit, match="no values"):
            _parse_set_overrides(["seed="])
        with pytest.raises(SystemExit, match="duplicate"):
            _parse_set_overrides(["seed=1", "seed=2"])

    @pytest.mark.parametrize("flags", [
        ["--duration", "nan"],
        ["--duration", "inf"],
        ["--scale", "nan"],
        ["--set", "seconds=nan"],
        ["--set", "smoke_sleep.seconds=0.01,-inf"],
        ["--set", "seconds=1e999"],
        ["--set", "seconds=[0.1,nan]"],
        ["--set", "seconds=(0.1,nan)"],
        ["--set", "seconds=(inf,)"],
    ])
    def test_run_rejects_non_finite_floats(self, tmp_path, capsys, monkeypatch, flags):
        # argparse's float() and the --set parser accept NaN and
        # infinities; unchecked, a NaN duration never ends a simulation.
        # They are rejected before any task starts, as by fv simulate. A
        # bracketed or parenthesised grid point is coerced element by
        # element, so a NaN inside it is caught too.
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "smoke_sleep", "--workers", "0", "--no-cache",
            "--manifest", "m.jsonl", *flags,
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert "fv: error:" in err and "must be finite" in err
        assert "task(s)" not in out
        assert not (tmp_path / "m.jsonl").exists()

    @pytest.mark.parametrize("timeout", ["nan", "-1"])
    def test_run_rejects_bad_timeout(self, tmp_path, capsys, monkeypatch, timeout):
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "smoke_sleep", "--workers", "0", "--no-cache",
            "--manifest", "m.jsonl", "--timeout", timeout,
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert "fv: error:" in err and "timeout" in err
        assert "task(s)" not in out
        assert not (tmp_path / "m.jsonl").exists()

    def test_run_rejects_timeout_inline(self, tmp_path, capsys, monkeypatch):
        # Accepted, the budget would not stop the 1.0 s task.
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "smoke_sleep", "--workers", "0", "--no-cache",
            "--manifest", "m.jsonl", "--timeout", "0.2", "--set", "seconds=1.0",
        ])
        assert code == 1
        out, err = capsys.readouterr()
        assert "fv: error:" in err and "--timeout" in err
        assert "task(s)" not in out
        assert not (tmp_path / "m.jsonl").exists()

    def test_perf_workloads_print_their_tables(self, tmp_path, capsys, monkeypatch):
        # The shell route to the three perf workloads at short settings.
        # The fabric cell (8 hosts, 2 shards, 2 s) pins the same counts
        # as benchmarks/test_bench_fabric.py.
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "hotpath", "megaflow", "fabric_sweep",
            "--workers", "0", "--no-cache", "--tables",
            "--set", "hotpath.duration=2",
            "--set", "megaflow.duration=0.01",
            "--set", "fabric_sweep.hosts=8",
            "--set", "fabric_sweep.shards=2",
            "--set", "fabric_sweep.duration=2.0",
            "--manifest", "m.jsonl",
        ])
        assert code == 0
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        for title in ("hotpath — fig11a-scale200-2s",
                      "megaflow — megaflow-scale200-0.01s-batched",
                      "fabric — 8 hosts, 2 shards"):
            assert title in lines
        fabric = lines[lines.index("fabric — 8 hosts, 2 shards"):]
        assert "events executed 981" in fabric
        assert "packets delivered 6028" in fabric

    def test_shared_sim_flags_become_grid_axes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", "run", "smoke_sleep", "--workers", "0",
            "--seed", "11", "--set", "seconds=0.01",
            "--manifest", "m.jsonl", "--no-cache",
        ])
        assert code == 0
        records = read_manifest(str(tmp_path / "m.jsonl"))
        assert records[0].params["seed"] == 11
