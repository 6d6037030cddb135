"""A crash-tolerant process pool for experiment points.

Deliberately hand-rolled rather than ``multiprocessing.Pool``: the
stock pool cannot kill a single hung task, and a worker that dies
mid-result poisons the whole map call. Here every worker owns one
:class:`~multiprocessing.Pipe`; the parent multiplexes replies with
:func:`multiprocessing.connection.wait`, enforces a per-point deadline,
and on a timeout or crash kills just that worker, respawns a fresh one
(bounded by a respawn budget, so a systemically broken environment fails
fast instead of thrashing), and retries the point once — after a short
exponential backoff with per-task jitter — before reporting it failed.
A sweep never hangs and never loses more than the one offending point.

Task / reply protocol (everything picklable and JSON-able)::

    task  = {"task_id": int, "experiment_id": str, "params": dict,
             "config": dict, "collect_metrics": bool,
             "collect_trace": bool,
             "heartbeat_s": float}                    # 0 → no progress
    reply = {"task_id": int, "ok": True, "payload": dict,
             "metrics": dict | None, "trace": dict | None,
             "telemetry": list | None,
             "elapsed_s": float, "events": int, "attempts": int}
          | {"task_id": int, "ok": False, "error": str,
             "attempts": int}

Interleaved with replies, workers emit **progress messages** — any
message carrying a ``"progress"`` key is informational, never a task
outcome, and the parent forwards it to ``on_progress`` without touching
pool bookkeeping::

    {"task_id": int, "progress": "started", "pid": int}
    {"task_id": int, "progress": "heartbeat", "pid": int,
     "elapsed_s": float, "events": int}

The heartbeat runs on a worker-side thread sampling the process-wide
event counter; a lock serializes its pipe writes against the main reply,
so messages never interleave mid-frame. Heartbeats report liveness only
— the per-point deadline is not extended by them (a point that is alive
but over budget is still killed).

Workers and the in-process ``jobs == 1`` path run a task through the
same :func:`run_point`: it rebuilds the :class:`ExperimentConfig` from
the scalar ``config`` fields, gives the point fresh metrics, trace and
telemetry collectors as the task asks, and ships their snapshots in the
reply for the parent to merge in plan order.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing as mp
import os
import threading
import time
import traceback
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Callable, Optional

__all__ = [
    "WorkerPool",
    "DEFAULT_POINT_TIMEOUT_S",
    "DEFAULT_HEARTBEAT_S",
    "run_point",
]

#: Generous per-point wall-clock budget; the longest full-scale point
#: (fig6 interference timelines) simulates in well under a minute.
DEFAULT_POINT_TIMEOUT_S = 600.0

#: Interval between worker liveness heartbeats while a point runs.
DEFAULT_HEARTBEAT_S = 5.0

#: Whether this process has frozen its pre-point heap (:func:`run_point`).
#: A flag rather than ``gc.get_freeze_count()``, which walks the whole
#: frozen generation on every call (about 0.4 ms for 23k objects).
_heap_frozen = False


def run_point(plan, task: dict) -> dict:
    """Run one task's point and build its reply (workers and ``jobs=1``).

    The config is rebuilt from the task's scalar fields; metrics, trace
    and telemetry are recorded into fresh per-point collectors whose
    snapshots ride the reply, so the parent merges them in plan order
    whether the point ran in a worker, inline, or came from the cache.

    Each point ends with a full ``gc.collect()``: a point leaves cyclic
    garbage behind (the device graph, with any processes still
    suspended when the simulation stopped, such as write-buffer
    flushes), and collecting it at the boundary keeps the next point
    from inheriting it. Before its first point the process collects and
    then ``gc.freeze()``-s what is left (modules, plans, the caller's
    state), so those collections walk only what points allocate
    (DESIGN.md §15.8).
    """
    from ..core.experiments.common import ExperimentConfig
    from ..obs.metrics import MetricsRegistry
    from ..obs.telemetry import TelemetryCollector
    from ..obs.tracer import Tracer
    from ..sim.engine import events_total

    global _heap_frozen
    if not _heap_frozen:
        gc.collect()
        gc.freeze()
        _heap_frozen = True
    started = time.perf_counter()
    events_before = events_total()
    try:
        config = ExperimentConfig(**task["config"])
        metrics = MetricsRegistry() if task["collect_metrics"] else None
        tracer = Tracer() if task["collect_trace"] else None
        telemetry = None
        if config.telemetry_interval_ns:
            telemetry = TelemetryCollector(config.telemetry_interval_ns)
        config = dataclasses.replace(
            config, metrics=metrics, tracer=tracer, telemetry=telemetry)
        payload = plan.point(config, task["params"])
        return {
            "task_id": task["task_id"],
            "ok": True,
            "payload": payload,
            "metrics": metrics.snapshot() if metrics is not None else None,
            "trace": tracer.snapshot() if tracer is not None else None,
            "telemetry": telemetry.drain() if telemetry is not None else None,
            "elapsed_s": time.perf_counter() - started,
            "events": events_total() - events_before,
        }
    except Exception:
        return {
            "task_id": task["task_id"],
            "ok": False,
            "error": traceback.format_exc(),
        }
    finally:
        gc.collect()


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive tasks until ``None`` / EOF, send replies."""
    from ..core.experiments.points import experiment_plans
    from ..sim.engine import events_total

    plans = experiment_plans(auxiliary=True)
    pid = os.getpid()
    send_lock = threading.Lock()

    def send(message: dict) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        task_id = task["task_id"]
        started = time.perf_counter()
        events_before = events_total()
        heartbeat_s = task.get("heartbeat_s") or 0.0
        stop: Optional[threading.Event] = None
        beat_thread: Optional[threading.Thread] = None
        if heartbeat_s > 0:
            if not send({"task_id": task_id, "progress": "started", "pid": pid}):
                return
            stop = threading.Event()

            def beat() -> None:
                while not stop.wait(heartbeat_s):
                    alive = send({
                        "task_id": task_id,
                        "progress": "heartbeat",
                        "pid": pid,
                        "elapsed_s": time.perf_counter() - started,
                        "events": events_total() - events_before,
                    })
                    if not alive:
                        return

            beat_thread = threading.Thread(
                target=beat, name="repro-heartbeat", daemon=True
            )
            beat_thread.start()
        try:
            reply = run_point(plans[task["experiment_id"]], task)
        finally:
            if stop is not None:
                stop.set()
                beat_thread.join(timeout=5)
        if not send(reply):
            return


class _Worker:
    """One worker process plus the parent's end of its pipe."""

    def __init__(self, ctx, worker_id: int):
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,),
            name=f"repro-exec-{worker_id}", daemon=True,
        )
        self.process.start()
        child_conn.close()  # parent keeps one end; EOF surfaces crashes
        self.conn = parent_conn

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        self.conn.close()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


class WorkerPool:
    """Fan tasks out over worker processes with timeout/crash recovery."""

    def __init__(self, jobs: int, timeout_s: float = DEFAULT_POINT_TIMEOUT_S,
                 max_attempts: int = 2, mp_context=None,
                 retry_backoff_s: float = 0.5, max_respawns: int = 8,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        #: Worker liveness-heartbeat interval; ``0`` disables progress
        #: messages entirely (tasks carry the value to the worker).
        self.heartbeat_s = heartbeat_s
        #: Base delay before retrying a failed point (doubles per attempt,
        #: plus a small per-task jitter so retries don't restart in
        #: lockstep after a machine-wide stall, e.g. OOM-killer sweeps).
        self.retry_backoff_s = retry_backoff_s
        #: Replacement-worker budget per ``run()``. A systemic failure
        #: (bad install, sandbox killing children) would otherwise
        #: respawn-thrash forever; past the cap, remaining tasks fail
        #: fast with a clear error instead.
        self.max_respawns = max_respawns
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = mp.get_context("fork" if "fork" in methods else "spawn")
        self._ctx = mp_context
        self._next_worker_id = 0

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id)
        self._next_worker_id += 1
        return worker

    def run(
        self,
        tasks: list[dict],
        on_reply: Optional[Callable[[dict, dict], None]] = None,
        on_progress: Optional[Callable[[dict, dict], None]] = None,
    ) -> dict[int, dict]:
        """Run every task; returns task_id → final reply.

        ``on_reply(task, reply)`` fires once per task when its final
        reply (success, or failure after the retry) is known.
        ``on_progress(task, message)`` fires for every worker progress
        message (point started, periodic heartbeat) — informational
        only, possibly more than once per task and attempt.
        """
        if not tasks:
            return {}
        for task in tasks:
            task.setdefault("heartbeat_s", self.heartbeat_s)
        pending = list(reversed(tasks))  # pop() serves original order
        attempts: dict[int, int] = {t["task_id"]: 0 for t in tasks}
        replies: dict[int, dict] = {}
        by_id = {t["task_id"]: t for t in tasks}
        workers = [self._spawn() for _ in range(min(self.jobs, len(tasks)))]
        busy: dict[Connection, tuple[dict, float, _Worker]] = {}
        retry_at: dict[int, float] = {}  # task_id → earliest redispatch time
        respawns = 0

        def finish(task: dict, reply: dict) -> None:
            reply["attempts"] = attempts[task["task_id"]] + (1 if reply["ok"] else 0)
            replies[task["task_id"]] = reply
            if on_reply is not None:
                on_reply(task, reply)

        def fail(task: dict, error: str) -> None:
            tid = task["task_id"]
            attempts[tid] += 1
            if attempts[tid] < self.max_attempts:
                # Exponential backoff plus deterministic per-task jitter:
                # retries of a transient machine-wide problem shouldn't
                # all slam back in at the same instant.
                delay = self.retry_backoff_s * (1 << (attempts[tid] - 1))
                retry_at[tid] = (
                    time.monotonic() + delay + (tid * 0.037) % 0.1
                )
                pending.append(task)
            else:
                finish(task, {"task_id": tid, "ok": False, "error": error})

        def respawn(worker: _Worker) -> None:
            nonlocal respawns
            workers.remove(worker)
            worker.kill()
            if respawns < self.max_respawns:
                respawns += 1
                workers.append(self._spawn())

        try:
            while len(replies) < len(tasks):
                # Hand pending tasks whose backoff has elapsed to idle
                # workers (newest-first, like the original stack order).
                now = time.monotonic()
                for worker in workers:
                    if worker.conn in busy or not pending:
                        continue
                    idx = next(
                        (i for i in range(len(pending) - 1, -1, -1)
                         if retry_at.get(pending[i]["task_id"], 0.0) <= now),
                        None,
                    )
                    if idx is None:
                        break  # everything pending is still backing off
                    task = pending.pop(idx)
                    worker.conn.send(task)
                    busy[worker.conn] = (
                        task, time.monotonic() + self.timeout_s, worker
                    )
                if not workers:
                    # Respawn budget exhausted: fail whatever is left
                    # rather than looping forever with nobody to run it.
                    for task in pending:
                        attempts[task["task_id"]] = self.max_attempts
                        finish(task, {
                            "task_id": task["task_id"], "ok": False,
                            "error": "worker respawn budget exhausted "
                                     f"({self.max_respawns} respawns)",
                        })
                    pending.clear()
                    break
                if not busy:
                    if pending:  # all pending tasks are in backoff; wait
                        soonest = min(
                            retry_at.get(t["task_id"], 0.0) for t in pending
                        )
                        time.sleep(
                            max(0.0, min(soonest - time.monotonic(), 1.0))
                        )
                        continue
                    break  # pragma: no cover - defensive
                deadline = min(d for _, d, _ in busy.values())
                wait_s = max(0.0, min(deadline - time.monotonic(), 1.0))
                ready = connection_wait(list(busy), timeout=wait_s)
                for conn in ready:
                    task, _, worker = busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-point: replace it, retry the task.
                        busy.pop(conn)
                        pid, exitcode = worker.process.pid, worker.process.exitcode
                        respawn(worker)
                        fail(task, "worker process crashed "
                                   f"(pid {pid}, exitcode {exitcode})")
                        continue
                    if reply.get("progress"):
                        # Liveness/progress only: the task stays busy and
                        # keeps its original deadline.
                        if on_progress is not None:
                            on_progress(task, reply)
                        continue
                    busy.pop(conn)
                    if reply.get("ok"):
                        finish(task, reply)
                    else:
                        fail(task, reply.get("error", "unknown worker error"))
                # Kill anything past its deadline and retry it elsewhere.
                now = time.monotonic()
                for conn in [c for c, (_, d, _) in busy.items() if d <= now]:
                    task, _, worker = busy.pop(conn)
                    respawn(worker)
                    fail(task, f"point exceeded the {self.timeout_s:.0f}s "
                               "timeout and was killed")
        finally:
            for worker in workers:
                worker.shutdown()
        assert set(replies) == set(by_id)
        return replies
