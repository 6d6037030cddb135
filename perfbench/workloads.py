"""The benchmark's workloads, one timed unit of each, and output checks.

A unit is a fixed batch of sweep points run in this process at
``jobs=1`` with the point cache off. Inside simulated time every job is
closed-loop (fio-style, a fixed queue depth per thread), so the work a
point does is fixed by its inputs and seed; from the host's side the
unit is a batch, and throughput is reported per host second.

The three workloads cover the two interference regimes of ZNS
characterization work (zone management beside I/O, GC beside reads)
plus the short host-stack sweeps. README.md says why each was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from probes import Probe, Sampler, install

#: Workload -> decimal seed -> sha256 of the unit's result tables.
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: The default workload seed, also the anchors' calibration seed.
DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    #: Run only the point with these parameters (through
    #: ``ExperimentPlan.point``), or every point of every experiment
    #: (through ``execute_experiments``) when ``None``.
    point: Optional[dict]
    #: Experiment id -> names of the ``repro.core.observations``
    #: predicates its table feeds.
    predicates: dict
    #: Untraced units per run, at least: enough that the medians ride
    #: out a shared host's seconds-long slow spells (README.md, "Noise").
    min_units: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("zns-sweep", ("fig2a", "fig3", "fig4a"), None,
                 {"fig2a": ("check_obs1",), "fig3": ("check_obs3",),
                  "fig4a": ("check_obs7",)}, min_units=3),
        Workload("reset-mix", ("fig7",), None,
                 {"fig7": ("check_obs12", "check_obs13")}),
        Workload("conv-gc", ("fig6",), {"kind": "conv"}, {}),
    )
}


@dataclass
class Unit:
    """What one timed run of a workload measured. Times are seconds of
    the clock the unit ran with, except ``host_s``."""

    wall_s: float = 0.0
    #: Host seconds of the unit, not scaled by the host's speed.
    host_s: float = 0.0
    #: Seconds of each outermost set-up call, in call order.
    setup_calls: list = field(default_factory=list)
    simulate_s: float = 0.0
    #: Seconds of each point, in plan order.
    point_s: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    digest: str = ""
    #: Exact counts (deterministic for a seed).
    counts: dict = field(default_factory=dict)
    probe: Optional[Probe] = None


def digest_of(results: dict) -> str:
    """sha256 of the canonical JSON of every assembled result table."""
    from repro.core.experiments.points import serialize_result

    blob = json.dumps(
        [serialize_result(results[exp_id]) for exp_id in sorted(results)],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _count(unit: Unit, probe: Probe, events: int) -> None:
    from repro.hostif.commands import Opcode

    counts = {"sim.events": events, "sim.ns": probe.sim_ns,
              "setup.calls": len(probe.setup_calls)}
    for op in (Opcode.READ, Opcode.WRITE, Opcode.APPEND, Opcode.ZONE_MGMT):
        counts[f"device.cmds.{op.value}"] = sum(
            d.counters.completed[op] for d in probe.devices)
    counts["device.cmds"] = sum(
        sum(d.counters.completed.values()) for d in probe.devices)
    for name in ("pages_programmed", "pages_read", "blocks_erased"):
        counts[f"flash.{name}"] = sum(getattr(d.flash, name) for d in probe.devices)
    conv = [d for d in probe.devices if d.ftl is not None]
    counts["conv.devices"] = len(conv)
    counts["conv.host_pages"] = sum(d.ftl.total_user_pages_written for d in conv)
    counts["conv.gc_pages_copied"] = sum(d.ftl.total_gc_pages_copied for d in conv)
    counts["conv.pages_programmed"] = sum(d.flash.pages_programmed for d in conv)
    if probe.traced:
        counts["conv.pick_victim_calls"] = probe.calls["conv.pick_victim"]
        counts["zns.resets"] = probe.calls["zns.reset"]
    unit.counts = counts


def run_unit(workload: Workload, seed: int, clock: Callable[[], float],
             sampler: Optional[Sampler] = None) -> Unit:
    """Run the workload's points once, timed from outside with
    ``clock``. With a ``sampler`` the unit is traced: spans, call
    counts, and profile samples of the timed region."""
    import repro.exec.engine as engine
    from repro.core.experiments.common import ExperimentConfig
    from repro.sim.engine import events_total

    config = ExperimentConfig(seed=seed)
    unit = Unit()
    probe = unit.probe = Probe(traced=sampler is not None, clock=clock)
    install(probe)
    try:
        events_before = events_total()
        if sampler is not None:
            sampler.start()
        host_started = time.perf_counter()
        with probe.span("unit"):
            started = clock()
            if workload.point is None:
                unit.results, _report = engine.execute_experiments(
                    list(workload.experiments), config, jobs=1, cache_dir=None)
            else:
                (exp_id,) = workload.experiments
                plan = engine.experiment_plans()[exp_id]
                payload = plan.point(config, dict(workload.point))
                payload = engine.canonical_payload(payload)
                unit.results = {exp_id: engine.assemble(plan, config, [payload])}
            unit.wall_s = clock() - started
        unit.host_s = time.perf_counter() - host_started
        events = events_total() - events_before
    finally:
        if sampler is not None:
            sampler.stop()
        probe.close()
    unit.point_s = probe.point_s
    unit.setup_calls = probe.setup_calls
    unit.simulate_s = probe.self_s["sim.run"]
    unit.digest = digest_of(unit.results)
    _count(unit, probe, events)
    return unit


class Checks:
    """Output checks; ``error_rate`` is failed / attempted."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.records.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted


def check_anchors(checks: Checks, seed: int) -> float:
    """The 13 paper anchors at ``seed``; returns the largest error in %."""
    from repro.zns.calibrate import measure_anchors

    worst = 0.0
    for result in measure_anchors(seed):
        paper = result.anchor.paper_value
        worst = max(worst, abs(result.measured - paper) / paper * 100)
        checks.add(f"anchor: {result.anchor.name}", result.ok, str(result))
    return worst


def check_unit(checks: Checks, workload: Workload, unit: Unit,
               expected_digest: Optional[str]) -> None:
    """Predicates on the unit's tables, its digest (when one is
    recorded for the seed), and FTL accounting."""
    from repro.core import observations

    if expected_digest is not None:
        checks.add("digest", unit.digest == expected_digest,
                   f"{unit.digest} (expected {expected_digest})")
    for exp_id, names in workload.predicates.items():
        for name in names:
            verdict = getattr(observations, name)(unit.results[exp_id])
            checks.add(f"{name}({exp_id})", verdict.passed, str(verdict))
    if unit.counts["conv.devices"]:
        # Every page the conventional device programmed after
        # preconditioning was committed by the host or by GC first; the
        # run stops with some committed pages still buffered or in
        # flight, so the sum may exceed the programmed count.
        c = unit.counts
        committed = c["conv.host_pages"] + c["conv.gc_pages_copied"]
        checks.add(
            "conv pages programmed <= host pages + GC copies",
            c["conv.pages_programmed"] <= committed,
            f"{c['conv.pages_programmed']} programmed, {committed} committed",
        )
        checks.add("conv GC relocated pages", c["conv.gc_pages_copied"] > 0,
                   f"{c['conv.gc_pages_copied']} pages copied")


def check_repeat(checks: Checks, first: Unit, again: Unit) -> None:
    """A second unit at one seed must repeat the first exactly."""
    checks.add("repeat digest", again.digest == first.digest,
               f"{again.digest} vs {first.digest}")
    shared = first.counts.keys() & again.counts.keys()
    differ = sorted(k for k in shared if first.counts[k] != again.counts[k])
    checks.add("repeat counts", not differ, ", ".join(differ) or "identical")


def median(units: list[Unit], attr: str) -> float:
    return statistics.median(getattr(u, attr) for u in units)


def expected_digest(workload: Workload, seed: int) -> Optional[str]:
    """The recorded digest of ``workload`` at ``seed``, if there is one."""
    with open(DIGESTS) as fh:
        return json.load(fh)[workload.name].get(str(seed))


def setup_s(units: list[Unit]) -> float:
    """Set-up seconds: each set-up call's median over units, summed.

    Units at one seed make the same set-up calls in the same order, so
    a slow spell of the host that hits one call in one unit drops out.
    """
    return sum(map(statistics.median, zip(*(u.setup_calls for u in units))))


def point_max_s(units: list[Unit]) -> float:
    """The slowest point, after taking each point's median over units."""
    return max(map(statistics.median, zip(*(u.point_s for u in units))))


def reset_p95_ms(unit: Unit) -> float:
    """Worst simulated reset p95 in the unit's tables (0 if none)."""
    values = [
        row["reset_p95_ms"]
        for result in unit.results.values()
        for row in result.rows
        if isinstance(row.get("reset_p95_ms"), (int, float))
    ]
    return max(values, default=0.0)
