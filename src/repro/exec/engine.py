"""The experiment execution engine: plan → (cache | workers) → assemble.

Every experiment decomposes into independent, deterministically-seeded
sweep points (:mod:`repro.core.experiments.points`). The engine

1. expands the requested experiments into one task per point,
2. serves finished points from the content-addressed
   :class:`~repro.exec.cache.ResultCache` (which doubles as a
   checkpoint: an interrupted sweep resumes from disk),
3. fans the remaining points out over a
   :class:`~repro.exec.pool.WorkerPool` (``--jobs N``) with a per-point
   timeout and crash recovery, or runs them inline when ``jobs == 1``,
4. reassembles payloads **in plan order** — never completion order — so
   parallel output is byte-identical to the serial run, and
5. merges per-point :class:`MetricsRegistry` snapshots, trace
   segments (:meth:`Tracer.snapshot`) and telemetry segments back into
   the caller's registry, tracer and report, again in plan order.

Payloads are canonicalized through a JSON round-trip before assembly,
so a value has exactly one form whether it came from this process, a
worker, or a cache file (floats round-trip exactly; tuples become
lists, which :func:`~repro.core.experiments.points.assemble` restores).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.experiments.common import ExperimentConfig
from ..core.experiments.points import (
    assemble,
    experiment_plans,
    point_label,
)
from ..core.results import ExperimentResult, render_table
from .cache import ResultCache
from .pool import DEFAULT_POINT_TIMEOUT_S, WorkerPool, run_point

__all__ = [
    "ExecutionError",
    "ExecutionReport",
    "PointRecord",
    "canonical_payload",
    "config_fields",
    "execute_experiments",
]


def config_fields(config: ExperimentConfig) -> dict[str, Any]:
    """The scalar config fields (drops the tracer/metrics/telemetry
    hooks; the telemetry *interval* is a scalar and stays in)."""
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in ("tracer", "metrics", "telemetry")
    }


def _json_scalar(obj: Any):
    item = getattr(obj, "item", None)  # numpy scalars → Python scalars
    if callable(item):
        return item()
    raise TypeError(f"payload value {obj!r} is not JSON-serializable")


def canonical_payload(payload: Any) -> Any:
    """The unique JSON-round-tripped form of a point payload."""
    return json.loads(json.dumps(payload, default=_json_scalar))


@dataclass
class PointRecord:
    """One point's execution record (for reports and ``profile --points``)."""

    experiment_id: str
    label: str
    source: str  # "run" | "cache" | "failed"
    elapsed_s: float
    attempts: int = 1
    error: Optional[str] = None
    #: Simulated events dispatched while computing this point (0 when
    #: the stat predates the field, e.g. old cache entries).
    events: int = 0


@dataclass
class ExecutionReport:
    """What the engine did: per-point records plus run totals."""

    jobs: int
    points: list[PointRecord] = field(default_factory=list)
    wall_s: float = 0.0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    #: Merged time-resolved telemetry (experiment id → segment list in
    #: plan order), populated only when the config carries a sampling
    #: interval. Segments are canonical JSON values — deterministic at
    #: any ``--jobs`` because the merge below runs in plan order and the
    #: samplers never perturb the simulation.
    telemetry: dict[str, list] = field(default_factory=dict)

    @property
    def events(self) -> int:
        """Simulated events dispatched by the freshly-executed points."""
        return sum(r.events for r in self.points if r.source == "run")

    @property
    def events_per_s(self) -> float:
        """Aggregate simulation rate of the freshly-executed points."""
        busy = sum(r.elapsed_s for r in self.points if r.source == "run")
        return self.events / busy if busy > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.points) if self.points else 0.0

    def summary(self) -> str:
        total = len(self.points)
        parts = [
            f"{total} points: {self.executed} executed,"
            f" {self.cache_hits} cached",
        ]
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        parts.append(f"{self.wall_s:.1f}s wall, jobs={self.jobs}")
        return "[exec] " + ", ".join(parts)

    def table(self) -> str:
        """Per-point wall-clock table (slowest first)."""
        rows = [
            {
                "experiment": record.experiment_id,
                "point": record.label,
                "source": record.source,
                "attempts": record.attempts,
                "wall_s": record.elapsed_s,
                "events": record.events,
                "kev_per_s": (
                    record.events / record.elapsed_s / 1e3
                    if record.events and record.elapsed_s > 0 else 0.0
                ),
            }
            for record in sorted(
                self.points, key=lambda r: r.elapsed_s, reverse=True
            )
        ]
        return render_table(
            ["experiment", "point", "source", "attempts", "wall_s",
             "events", "kev_per_s"],
            rows,
            title=f"[exec] per-point wall clock ({self.summary()[7:]})",
        )


class ExecutionError(RuntimeError):
    """Raised when points still fail after their retry."""

    def __init__(self, failures: list[PointRecord], report: ExecutionReport):
        self.failures = failures
        self.report = report
        lines = [f"{len(failures)} experiment point(s) failed:"]
        for record in failures:
            first_line = (record.error or "").strip().splitlines()
            detail = first_line[-1] if first_line else "unknown error"
            lines.append(
                f"  {record.experiment_id}:{record.label} "
                f"({record.attempts} attempts): {detail}"
            )
        super().__init__("\n".join(lines))


#: Per-point snapshots that ride the worker reply and the cache entry.
_SNAPSHOT_KEYS = ("metrics", "trace", "telemetry")


@dataclass
class _Point:
    """Internal bookkeeping for one sweep point."""

    task_id: int
    experiment_id: str
    index: int
    params: dict
    label: str
    cache_key: Optional[str] = None
    hint_key: Optional[str] = None
    hint_s: Optional[float] = None


def execute_experiments(
    ids: Optional[list[str]] = None,
    config: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timeout_s: float = DEFAULT_POINT_TIMEOUT_S,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[dict[str, ExperimentResult], ExecutionReport]:
    """Run experiments through the point engine.

    Returns ``(results, report)`` where ``results`` maps experiment id →
    :class:`ExperimentResult` in request order. Raises
    :class:`ExecutionError` if any point still fails after its retry.
    """
    config = config or ExperimentConfig()
    if config.telemetry is not None:
        raise ValueError(
            "pass telemetry_interval_ns, not a live collector: the engine "
            "creates one collector per sweep point so segments merge in "
            "plan order"
        )
    # Ids resolve against the auxiliary-inclusive registry (so "sec4"
    # runs through the same machinery), but the default id list is the
    # main suite only.
    plans = experiment_plans(auxiliary=True)
    ids = list(ids) if ids else list(experiment_plans())
    unknown = [i for i in ids if i not in plans]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; choose from {list(plans)}"
        )
    say = progress if progress is not None else (lambda message: None)
    collect_metrics = config.metrics is not None
    collect_trace = config.tracer is not None
    cfg_fields = config_fields(config)
    cache = ResultCache(cache_dir) if cache_dir else None

    started = time.monotonic()
    report = ExecutionReport(jobs=jobs)

    # 1. Expand every experiment into globally-indexed points.
    points: list[_Point] = []
    payloads: dict[str, list] = {}
    for exp_id in ids:
        params_list = [canonical_payload(p) for p in plans[exp_id].plan(config)]
        payloads[exp_id] = [None] * len(params_list)
        for index, params in enumerate(params_list):
            points.append(_Point(
                task_id=len(points), experiment_id=exp_id, index=index,
                params=params, label=point_label(params),
            ))

    # 2. Serve finished points from the cache.
    records: dict[int, PointRecord] = {}
    #: task id → {"metrics", "trace", "telemetry"} snapshots (or None).
    snapshots: dict[int, dict] = {}
    misses: list[_Point] = []
    for point in points:
        if cache is not None:
            point.cache_key = cache.key(
                point.experiment_id, point.params, cfg_fields,
                collect_metrics, collect_trace,
            )
            point.hint_key = cache.hint_key(
                point.experiment_id, point.params, cfg_fields
            )
            entry = cache.load(point.cache_key)
            if entry is not None:
                payloads[point.experiment_id][point.index] = entry["payload"]
                snapshots[point.task_id] = {
                    k: entry.get(k) for k in _SNAPSHOT_KEYS
                }
                records[point.task_id] = PointRecord(
                    point.experiment_id, point.label, "cache",
                    entry.get("elapsed_s", 0.0),
                    events=int(entry.get("events", 0)),
                )
                report.cache_hits += 1
                continue
            point.hint_s = cache.duration_hint(point.hint_key)
        misses.append(point)

    total = len(points)
    say(f"[exec] {total} points across {len(ids)} experiment(s): "
        f"{report.cache_hits} cached, {len(misses)} to run "
        f"(jobs={jobs})")

    # 3. Run the cache misses — fanned out or inline. Dispatch order is
    #    longest-first from the duration sidecar (LPT minimizes parallel
    #    makespan: a multi-second point started last would tail the whole
    #    sweep). Points with no hint sort first — an unknown duration
    #    might be the longest — and the sort is stable, so a cold cache
    #    degrades to plain plan order (FIFO). Results are assembled in
    #    plan order regardless, so scheduling never changes output.
    if cache is not None and any(p.hint_s is not None for p in misses):
        misses = sorted(
            misses,
            key=lambda p: -(p.hint_s if p.hint_s is not None else float("inf")),
        )
    tasks = [
        {
            "task_id": point.task_id,
            "experiment_id": point.experiment_id,
            "params": point.params,
            "config": cfg_fields,
            "collect_metrics": collect_metrics,
            "collect_trace": collect_trace,
        }
        for point in misses
    ]
    by_id = {point.task_id: point for point in misses}
    done = [report.cache_hits]

    def on_reply(task: dict, reply: dict) -> None:
        point = by_id[task["task_id"]]
        done[0] += 1
        if reply["ok"]:
            say(f"[exec] {done[0]}/{total} {point.experiment_id}:"
                f"{point.label} ({reply['elapsed_s']:.2f}s)")
        else:
            say(f"[exec] {done[0]}/{total} {point.experiment_id}:"
                f"{point.label} FAILED after {reply['attempts']} attempt(s)")

    def on_progress(task: dict, message: dict) -> None:
        point = by_id[task["task_id"]]
        name = f"{point.experiment_id}:{point.label}"
        if message.get("progress") == "started":
            say(f"[exec] {name} started (pid {message.get('pid')})")
        else:
            elapsed = message.get("elapsed_s") or 0.0
            events = int(message.get("events") or 0)
            rate = events / elapsed / 1e3 if elapsed > 0 else 0.0
            say(f"[exec] {name} running: {events:,} events in "
                f"{elapsed:.0f}s ({rate:.0f} kev/s, pid {message.get('pid')})")

    if jobs > 1 and len(tasks) > 1:
        pool = WorkerPool(jobs, timeout_s=timeout_s)
        replies = pool.run(tasks, on_reply=on_reply, on_progress=on_progress)
    else:
        replies = {}
        for task in tasks:
            reply = run_point(plans[task["experiment_id"]], task)
            reply["attempts"] = 1
            replies[task["task_id"]] = reply
            on_reply(task, reply)

    # 4. Fold replies back in plan order; persist fresh points.
    failures: list[PointRecord] = []
    for point in misses:
        reply = replies[point.task_id]
        if not reply["ok"]:
            record = PointRecord(
                point.experiment_id, point.label, "failed", 0.0,
                attempts=reply.get("attempts", 1), error=reply.get("error"),
            )
            records[point.task_id] = record
            failures.append(record)
            report.failed += 1
            continue
        payload = canonical_payload(reply["payload"])
        payloads[point.experiment_id][point.index] = payload
        snapshots[point.task_id] = {
            k: canonical_payload(reply.get(k)) for k in _SNAPSHOT_KEYS
        }
        records[point.task_id] = PointRecord(
            point.experiment_id, point.label, "run", reply["elapsed_s"],
            attempts=reply.get("attempts", 1),
            events=int(reply.get("events", 0)),
        )
        report.executed += 1
        if cache is not None:
            cache.store(point.cache_key, {
                "experiment_id": point.experiment_id,
                "label": point.label,
                "payload": payload,
                **snapshots[point.task_id],
                "elapsed_s": reply["elapsed_s"],
                "events": int(reply.get("events", 0)),
            })
            cache.record_duration(point.hint_key, reply["elapsed_s"])

    if cache is not None and report.executed:
        cache.flush_durations()
    report.points = [records[point.task_id] for point in points]
    report.wall_s = time.monotonic() - started
    if failures:
        raise ExecutionError(failures, report)

    # 5. Merge metrics, trace and telemetry snapshots in plan order (so
    #    the combined output is independent of worker scheduling and
    #    --jobs), then assemble tables.
    for point in points:
        snapshot = snapshots[point.task_id]
        if collect_metrics and snapshot["metrics"]:
            config.metrics.merge_snapshot(snapshot["metrics"])
        if collect_trace and snapshot["trace"]:
            config.tracer.merge_snapshot(snapshot["trace"])
        for segment in snapshot["telemetry"] or []:
            segment = dict(segment)
            segment["experiment_id"] = point.experiment_id
            segment["point"] = point.label
            report.telemetry.setdefault(point.experiment_id, []).append(segment)
    results = {
        exp_id: assemble(plans[exp_id], config, payloads[exp_id])
        for exp_id in ids
    }
    say(report.summary())
    return results, report
