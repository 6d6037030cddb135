"""Tests for the execution engine: cache, worker pool, and assembly.

The headline guarantees under test:

* parallel output is byte-identical to the serial run (plan-order
  assembly + canonical JSON payloads),
* a warm cache replays every point without touching the simulator,
* a crashed or hung worker is killed, the point retries once on a fresh
  worker, and a persistent failure is reported — the sweep never hangs.
"""

from __future__ import annotations

import io
import json
import multiprocessing as mp
import os
import time

import pytest

import repro.core.experiments.points as points_mod
from repro.core.experiments.common import ExperimentConfig
from repro.core.experiments.points import (
    ExperimentPlan,
    experiment_plans,
    run_via_points,
    serialize_result,
)
from repro.exec import (
    ExecutionError,
    ResultCache,
    WorkerPool,
    canonical_payload,
    code_version,
    config_fields,
    execute_experiments,
)
from repro.obs.profile import LayerBreakdown
from repro.obs.tracer import Tracer
from repro.sim.engine import ms

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-failure tests monkeypatch the plan registry, which "
           "only propagates to fork-started workers",
)


def tiny_config(**extra) -> ExperimentConfig:
    return ExperimentConfig(point_runtime_ns=ms(2), ramp_ns=ms(0.4),
                            num_zones=16, zones_per_level=3, **extra)


def results_blob(results) -> str:
    return json.dumps(
        {k: serialize_result(v) for k, v in results.items()}, sort_keys=True
    )


class TestResultCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        key = cache.key("fig2a", {"op": "write"}, {"seed": 1}, False)
        assert cache.load(key) is None and cache.misses == 1
        entry = {"payload": {"rows": [{"x": 1.5}]}, "metrics": None,
                 "elapsed_s": 0.25}
        cache.store(key, entry)
        # store() stamps the entry with the code version it ran under.
        assert cache.load(key) == {**entry, "code": "v1"} and cache.hits == 1

    def test_key_covers_all_inputs(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        base = cache.key("fig2a", {"op": "write"}, {"seed": 1}, False)
        assert cache.key("fig2b", {"op": "write"}, {"seed": 1}, False) != base
        assert cache.key("fig2a", {"op": "read"}, {"seed": 1}, False) != base
        assert cache.key("fig2a", {"op": "write"}, {"seed": 2}, False) != base
        assert cache.key("fig2a", {"op": "write"}, {"seed": 1}, True) != base
        assert cache.key("fig2a", {"op": "write"}, {"seed": 1}, False,
                         True) != base
        other = ResultCache(tmp_path, version="v2")
        assert other.key("fig2a", {"op": "write"}, {"seed": 1}, False) != base

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # A truncated/garbled file (e.g. a worker killed mid-write) must
        # read as a miss, be deleted so it never poisons a later run,
        # and count toward the miss statistics.
        cache = ResultCache(tmp_path, version="v1")
        key = cache.key("fig2a", {}, {}, False)
        cache.store(key, {"payload": {}})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.load(key) is None
        assert not path.exists()
        assert cache.misses == 1
        # The slot is usable again after the discard.
        cache.store(key, {"payload": {"v": 1}})
        assert cache.load(key)["payload"] == {"v": 1}

    def test_wrong_shape_entry_is_discarded(self, tmp_path):
        # Valid JSON that isn't a cache entry (not a dict, or a dict
        # without "payload") is treated exactly like corruption.
        cache = ResultCache(tmp_path, version="v1")
        for blob in ('["a", "list"]', '{"no_payload": true}'):
            key = cache.key("fig2a", {"blob": blob}, {}, False)
            cache.store(key, {"payload": {}})
            path = cache._path(key)
            path.write_text(blob)
            assert cache.load(key) is None
            assert not path.exists()

    def test_code_version_is_stable_hex(self):
        first, second = code_version(), code_version()
        assert first == second
        assert len(first) == 64 and int(first, 16) >= 0


class TestCanonicalization:
    def test_tuples_become_lists_and_floats_round_trip(self):
        payload = {"rows": [{"v": 0.1 + 0.2}], "series": [["k", [(1, 2.5)]]]}
        out = canonical_payload(payload)
        assert out["series"] == [["k", [[1, 2.5]]]]
        assert out["rows"][0]["v"] == 0.1 + 0.2  # exact repr round-trip

    def test_numpy_scalars_coerced(self):
        np = pytest.importorskip("numpy")
        out = canonical_payload({"a": np.float64(1.25), "b": np.int64(7)})
        assert out == {"a": 1.25, "b": 7}
        assert isinstance(out["b"], int)

    def test_config_fields_drop_observability_hooks(self):
        config = tiny_config(tracer=Tracer())
        fields = config_fields(config)
        assert "tracer" not in fields and "metrics" not in fields
        assert ExperimentConfig(**fields) == config  # hooks excluded from eq


class TestEngineOutputIdentity:
    IDS = ["fig2a", "obs9"]

    def test_parallel_matches_serial_and_reference(self):
        config = tiny_config()
        plans = experiment_plans()
        reference = {i: run_via_points(plans[i], config) for i in self.IDS}
        serial, _ = execute_experiments(self.IDS, config, jobs=1)
        parallel, _ = execute_experiments(self.IDS, config, jobs=2)
        assert results_blob(serial) == results_blob(parallel)
        # The engine's canonicalized tables render exactly like the
        # uncached, uncanonicalized serial reference's.
        for exp_id in self.IDS:
            assert serial[exp_id].table() == reference[exp_id].table()

    def test_cached_rerun_skips_all_simulation(self, tmp_path):
        config = tiny_config()
        first, report1 = execute_experiments(
            self.IDS, config, jobs=1, cache_dir=tmp_path
        )
        assert report1.executed == len(report1.points) > 0
        second, report2 = execute_experiments(
            self.IDS, config, jobs=2, cache_dir=tmp_path
        )
        assert report2.executed == 0
        assert report2.cache_hits == len(report2.points)
        assert results_blob(first) == results_blob(second)

    def test_partial_cache_resumes_only_missing_points(self, tmp_path):
        config = tiny_config()
        _, report1 = execute_experiments(["fig2a"], config, jobs=1,
                                         cache_dir=tmp_path)
        # Drop one checkpointed point; a re-run recomputes just that one.
        # Count only entry shards; the duration sidecar lives at the root.
        entries = sorted(tmp_path.glob("??/*.json"))
        assert len(entries) == report1.executed
        entries[0].unlink()
        _, report2 = execute_experiments(["fig2a"], config, jobs=1,
                                         cache_dir=tmp_path)
        assert report2.executed == 1
        assert report2.cache_hits == len(report2.points) - 1

    def test_metrics_merge_matches_inline_collection(self):
        from repro.obs.metrics import MetricsRegistry

        serial_reg, parallel_reg = MetricsRegistry(), MetricsRegistry()
        import dataclasses

        execute_experiments(
            ["fig2a"], dataclasses.replace(tiny_config(), metrics=serial_reg),
            jobs=1,
        )
        execute_experiments(
            ["fig2a"], dataclasses.replace(tiny_config(), metrics=parallel_reg),
            jobs=2,
        )
        assert serial_reg.snapshot() == parallel_reg.snapshot()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="no-such-exp"):
            execute_experiments(["no-such-exp"], tiny_config())

    def test_registry_lists_paper_order(self):
        # The one registry fixes `repro list` and the default run order.
        assert list(experiment_plans()) == [
            "fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig4c", "obs9",
            "fig5a", "fig5b", "fig6", "obs11", "fig7", "fig7_fleet", "fig8",
            "fig8_aging", "fig6rates", "ablation-buffer",
            "ablation-append-cost", "ablation-gc-priority",
            "ablation-geometry", "ablation-zone-size",
        ]
        assert list(experiment_plans(auxiliary=True))[-1] == "sec4"


def _trace_files(tracer: Tracer) -> tuple[str, str]:
    jsonl, chrome = io.StringIO(), io.StringIO()
    tracer.write_jsonl(jsonl)
    tracer.write_chrome_trace(chrome)
    return jsonl.getvalue(), chrome.getvalue()


class TestTraceSegments:
    """Each point traces into its own tracer; the engine merges the
    segments in plan order into exactly one shared tracer's timeline."""

    IDS = ["fig2b", "fig5a"]

    def _engine_trace(self, **kwargs):
        tracer = Tracer()
        results, report = execute_experiments(
            self.IDS, tiny_config(tracer=tracer), **kwargs)
        return tracer, results, report

    def test_merged_trace_matches_one_shared_tracer(self, tmp_path):
        shared = Tracer()
        config = tiny_config(tracer=shared)
        plans = experiment_plans()
        reference = {i: run_via_points(plans[i], config) for i in self.IDS}
        inline, serial, _ = self._engine_trace(jobs=1)
        parallel, _, _ = self._engine_trace(jobs=2, cache_dir=tmp_path)
        warm, cached, report = self._engine_trace(jobs=2, cache_dir=tmp_path)
        assert report.executed == 0 and report.cache_hits == len(report.points)

        expected = _trace_files(shared)
        assert expected[0] and len(shared) > 0
        for tracer in (inline, parallel, warm):
            assert _trace_files(tracer) == expected
            assert (vars(LayerBreakdown.from_tracer(tracer))
                    == vars(LayerBreakdown.from_tracer(shared)))
        assert results_blob(serial) == results_blob(cached)
        for exp_id in self.IDS:
            assert serial[exp_id].table() == reference[exp_id].table()

    def test_cache_keeps_traced_and_untraced_entries_apart(self, tmp_path):
        execute_experiments(["fig2b"], tiny_config(), cache_dir=tmp_path)
        tracer = Tracer()
        _, report = execute_experiments(
            ["fig2b"], tiny_config(tracer=tracer), cache_dir=tmp_path)
        # An untraced entry has no segment, so a traced run recomputes.
        assert report.cache_hits == 0 and len(tracer) > 0

    def test_snapshot_round_trip_offsets_pids_and_cids(self):
        first, second = Tracer(), Tracer()
        for tracer, label in ((first, "a"), (second, "b")):
            tracer.instant("zone", "before-register", 0)
            tracer.register_process(label)
            cid = tracer.begin_command("write")
            tracer.span("command", "write", 5, 9, cid=cid, opcode="write")
            tracer.span("firmware", "gc", 6, 7, cid=0)
        merged = Tracer()
        for tracer in (first, second):
            merged.merge_snapshot(canonical_payload(tracer.snapshot()))
        events = merged.snapshot()["events"]
        # The second segment's pre-registration event lands under the
        # first segment's process, as on one shared tracer.
        assert [event[0] for event in events] == [0, 1, 1, 1, 2, 2]
        assert [dict(event[7]).get("cid") for event in events] == [
            None, 1, 0, None, 2, 0]
        assert merged.commands_traced == 2


# --- worker failure handling -------------------------------------------------
#
# The failure plans are injected by monkeypatching the plan registry in
# the parent; fork-started workers inherit the patched module.

_FLAG_ENV = "REPRO_TEST_FAIL_FLAG"


def _failure_plan_registry():
    def _plan(config):
        return [{"mode": "ok"}]

    def _describe(config):
        return {"title": "failure injection", "columns": ["mode", "value"]}

    def _point(config, params):
        mode = params["mode"]
        flag = os.environ.get(_FLAG_ENV, "")
        if mode == "raise":
            raise RuntimeError("deliberate point failure")
        if mode == "crash-once" and flag and not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(13)
        if mode == "hang-once" and flag and not os.path.exists(flag):
            open(flag, "w").close()
            time.sleep(60)
        return {"rows": [{"mode": mode, "value": 1}]}

    plan = ExperimentPlan("failing", _plan, _point, _describe)
    return {"failing": plan}


@pytest.fixture
def failure_plans(monkeypatch, tmp_path):
    import repro.exec.engine as engine_mod

    registry = _failure_plan_registry()
    # Patch both the defining module (inherited by fork-started workers,
    # which resolve it at call time) and the engine's direct binding.
    monkeypatch.setattr(
        points_mod, "experiment_plans", lambda auxiliary=False: registry)
    monkeypatch.setattr(
        engine_mod, "experiment_plans", lambda auxiliary=False: registry)
    monkeypatch.setenv(_FLAG_ENV, str(tmp_path / "attempt.flag"))
    return registry


class TestFailureRecovery:
    def _run(self, params_list, registry, **kwargs):
        registry["failing"] = ExperimentPlan(
            "failing", lambda config: params_list,
            registry["failing"].point, registry["failing"].describe,
        )
        return execute_experiments(["failing"], tiny_config(), **kwargs)

    def test_inline_failure_reported_not_hung(self, failure_plans):
        with pytest.raises(ExecutionError) as excinfo:
            self._run([{"mode": "raise"}], failure_plans, jobs=1)
        assert "deliberate point failure" in str(excinfo.value)
        assert excinfo.value.report.failed == 1

    @needs_fork
    def test_crashed_worker_respawned_and_point_retried(self, failure_plans):
        results, report = self._run(
            [{"mode": "crash-once"}, {"mode": "ok"}], failure_plans, jobs=2,
        )
        record = next(r for r in report.points if "crash-once" in r.label)
        assert record.attempts == 2 and record.source == "run"
        assert results["failing"].find(mode="crash-once") is not None

    @needs_fork
    def test_hung_worker_killed_and_point_retried(self, failure_plans):
        results, report = self._run(
            [{"mode": "hang-once"}, {"mode": "ok"}], failure_plans,
            jobs=2, timeout_s=2.0,
        )
        record = next(r for r in report.points if "hang-once" in r.label)
        assert record.attempts == 2
        assert results["failing"].find(mode="hang-once") is not None

    @needs_fork
    def test_persistent_failure_reported_after_retry(self, failure_plans):
        with pytest.raises(ExecutionError) as excinfo:
            self._run([{"mode": "raise"}, {"mode": "ok"}], failure_plans,
                      jobs=2)
        (failure,) = excinfo.value.failures
        assert failure.attempts == 2
        assert "deliberate point failure" in failure.error


@needs_fork
class TestWorkerPool:
    def test_tasks_complete_across_more_tasks_than_workers(self, failure_plans):
        pool = WorkerPool(jobs=2)
        tasks = [
            {"task_id": i, "experiment_id": "failing",
             "params": {"mode": "ok"}, "config": config_fields(tiny_config()),
             "collect_metrics": False, "collect_trace": False}
            for i in range(5)
        ]
        replies = pool.run(tasks)
        assert sorted(replies) == list(range(5))
        assert all(r["ok"] and r["attempts"] == 1 for r in replies.values())

    def test_empty_task_list(self):
        assert WorkerPool(jobs=2).run([]) == {}

    def test_respawn_budget_fails_fast(self, failure_plans):
        # With a zero respawn budget, the first worker crash exhausts
        # the pool: every task still outstanding (including the one
        # that crashed) fails with a clear budget error instead of the
        # pool respawn-thrashing or hanging forever.
        pool = WorkerPool(jobs=1, max_respawns=0, retry_backoff_s=0.01)
        tasks = [
            {"task_id": i, "experiment_id": "failing",
             "params": {"mode": mode},
             "config": config_fields(tiny_config()),
             "collect_metrics": False, "collect_trace": False}
            for i, mode in enumerate(["crash-once", "ok"])
        ]
        replies = pool.run(tasks)
        assert sorted(replies) == [0, 1]
        for reply in replies.values():
            assert not reply["ok"]
            assert "respawn budget exhausted" in reply["error"]

    def test_bad_job_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


class TestCachePrune:
    def _store_one(self, cache: ResultCache, tag: str) -> str:
        key = cache.key("fig2a", {"op": tag}, {"seed": 1}, False)
        cache.store(key, {"payload": tag, "metrics": None, "elapsed_s": 0.1})
        return key

    def test_prune_removes_only_stale_generations(self, tmp_path):
        old = ResultCache(tmp_path, version="v1")
        old_key = self._store_one(old, "old")
        new = ResultCache(tmp_path, version="v2")
        new_key = self._store_one(new, "new")

        stale, kept = new.prune(dry_run=True)
        assert (len(stale), kept) == (1, 1)
        # Dry run deletes nothing.
        assert new.load(old_key) is not None

        stale, kept = new.prune()
        assert (len(stale), kept) == (1, 1)
        assert new.load(old_key) is None
        assert new.load(new_key)["payload"] == "new"

    def test_prune_drops_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        key = self._store_one(cache, "good")
        bad = tmp_path / "ab" / ("b" * 64 + ".json")
        bad.parent.mkdir(exist_ok=True)
        bad.write_text("{not json")
        stale, kept = cache.prune()
        assert (len(stale), kept) == (1, 1)
        assert not bad.exists() and cache.load(key) is not None

    def test_prune_preserves_duration_sidecar(self, tmp_path):
        old = ResultCache(tmp_path, version="v1")
        self._store_one(old, "old")
        old.record_duration("deadbeef", 1.25)
        old.flush_durations()
        new = ResultCache(tmp_path, version="v2")
        new.prune()
        assert new.duration_hint("deadbeef") == 1.25

    def test_prune_missing_directory_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "nonexistent", version="v1")
        assert cache.prune() == ([], 0)


def _ran_labels(progress_lines: list[str]) -> list[str]:
    """The ``experiment:label`` tokens in per-point progress lines."""
    ran = []
    for line in progress_lines:
        parts = line.split()
        if len(parts) >= 3 and "/" in parts[1]:
            ran.append(parts[2])
    return ran


class TestLongestFirstScheduling:
    def test_cold_cache_runs_in_plan_order(self, tmp_path):
        config = tiny_config()
        lines: list[str] = []
        execute_experiments(["fig2a"], config, jobs=1, cache_dir=tmp_path,
                            progress=lines.append)
        plan_labels = [
            "fig2a:" + points_mod.point_label(canonical_payload(p))
            for p in experiment_plans()["fig2a"].plan(config)
        ]
        assert _ran_labels(lines) == plan_labels

    def test_warm_hints_schedule_longest_first(self, tmp_path):
        config = tiny_config()
        serial, _ = execute_experiments(["fig2a"], config, jobs=1)
        execute_experiments(["fig2a"], config, jobs=1, cache_dir=tmp_path)

        # Rewrite the sidecar so recorded durations grow with plan index,
        # then orphan every entry: all points miss, but hints survive.
        cache = ResultCache(tmp_path)
        cfg = config_fields(config)
        params = [canonical_payload(p)
                  for p in experiment_plans()["fig2a"].plan(config)]
        for index, point_params in enumerate(params):
            cache.record_duration(
                cache.hint_key("fig2a", point_params, cfg), float(index))
        cache.flush_durations()
        for entry in tmp_path.glob("??/*.json"):
            entry.unlink()

        lines = []
        results, report = execute_experiments(
            ["fig2a"], config, jobs=1, cache_dir=tmp_path,
            progress=lines.append)
        plan_labels = ["fig2a:" + points_mod.point_label(p) for p in params]
        # Longest hint first = reverse plan order ...
        assert _ran_labels(lines) == list(reversed(plan_labels))
        assert report.executed == len(params)
        # ... while assembly stays in plan order: output is unchanged.
        assert results_blob(results) == results_blob(serial)

    def test_unknown_hints_run_before_known(self, tmp_path):
        config = tiny_config()
        execute_experiments(["fig2a"], config, jobs=1, cache_dir=tmp_path)
        # Start from an empty sidecar (the run above hinted every point).
        (tmp_path / "durations.json").unlink()
        cache = ResultCache(tmp_path)
        cfg = config_fields(config)
        params = [canonical_payload(p)
                  for p in experiment_plans()["fig2a"].plan(config)]
        # Hint every point except the last; orphan all entries.
        for index, point_params in enumerate(params[:-1]):
            cache.record_duration(
                cache.hint_key("fig2a", point_params, cfg), 1.0 + index)
        cache.flush_durations()
        for entry in tmp_path.glob("??/*.json"):
            entry.unlink()
        lines = []
        execute_experiments(["fig2a"], config, jobs=1, cache_dir=tmp_path,
                            progress=lines.append)
        first = _ran_labels(lines)[0]
        assert first == "fig2a:" + points_mod.point_label(params[-1])


class TestEngineDeterminism:
    """The sim-core fast paths must not perturb results (PR 3 oracle)."""

    def test_back_to_back_runs_byte_identical(self):
        config = tiny_config()
        first, report = execute_experiments(["fig2a", "fig4a"], config, jobs=1)
        second, _ = execute_experiments(["fig2a", "fig4a"], config, jobs=1)
        assert results_blob(first) == results_blob(second)
        # Every freshly-run point reports its simulated event count.
        assert all(r.events > 0 for r in report.points if r.source == "run")
        assert report.events_per_s > 0


class TestBench:
    def test_run_bench_document_shape(self, tmp_path):
        from repro.exec.bench import BENCH_SCHEMA, run_bench

        doc = run_bench(["fig2a"], tiny_config(), jobs=1)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["points"] == 12 and doc["cache_hits"] == 0
        assert doc["events"] > 0 and doc["events_per_s"] > 0
        row = doc["experiments"]["fig2a"]
        assert row["points"] == 12 and row["events"] == doc["events"]

    def test_compare_gates_on_events_per_s(self):
        from repro.exec.bench import compare

        baseline = {"events_per_s": 1000.0}
        assert compare({"events_per_s": 900.0}, baseline) == []
        assert compare({"events_per_s": 799.0}, baseline)
        # A fully-cached run (no fresh timing signal) never fails.
        assert compare({"events_per_s": 0.0}, baseline) == []
        assert compare({"events_per_s": 900.0}, {}) == []
