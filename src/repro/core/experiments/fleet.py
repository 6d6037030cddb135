"""``fig7_fleet``: Fig. 7's interference story replayed as a serving fleet.

The §III-G microbenchmark (two threads, one device) says *what* the
device does — reset latency inflates +56–78 % under concurrent I/O
while I/O is unaffected by pure resets (Obs #12/#13). This experiment
says what that *costs a fleet*: N serving tenants run an LSM workload
(SST flushes, background compaction, point reads with a p99 SLO) on
disjoint zone partitions of one shared device, and a reclaim tenant —
a log/WAL-style antagonist that burns through its own partition with
real refill writes and trailing resets — is co-located with them.

Two points, one shared-device fleet each:

* ``baseline`` — the serving tenants alone (the reclaim partition is
  reserved but idle, so serving-tenant zones are identical across
  modes);
* ``reset-storm`` — the reclaim tenant added.

Per-tenant rows report the serving read p50/p99 against the SLO with
violation counts, plus flush/compaction progress and reset latencies.
The fold then attributes the cross-mode damage: victim read p99
inflation (the antagonist's refill writes backlog the shared dies —
the Obs #11 mechanism — because pure resets never delay I/O in this
calibrated model), and the antagonist's own reset p95 stalling behind
victim I/O (Obs #12/#13's direction, now with a tenant label on it).
"""

from __future__ import annotations

from ...apps.lsm import LsmConfig, LsmWorkload
from ...sim.engine import us
from ...tenancy import ResetStorm, Tenant, TenantScheduler, partition_zones
from ...zns.profiles import zn540_small
from ..results import ExperimentResult
from .common import KIB, ExperimentConfig, build_device
from .points import ExperimentPlan

__all__ = ["FIG7_FLEET_PLAN", "FLEET_MODES"]

FLEET_MODES = ("baseline", "reset-storm")

#: Zones per serving tenant; the reclaim tenant gets the remainder.
_SERVE_ZONES = 8
#: Zones reserved for the reclaim tenant (enough that its refill writes
#: span the whole measured window instead of stalling on its first,
#: victim-inflated reset).
_STORM_ZONES = 40


def _fleet_profile(config: ExperimentConfig):
    """Small zones (LSM flushes can fill and seal them inside the run)
    sized so every tenant partition fits."""
    num_zones = config.fleet_tenants * _SERVE_ZONES + _STORM_ZONES
    return zn540_small(num_zones=num_zones, zone_size_bytes=1024 * KIB,
                       zone_cap_bytes=768 * KIB)


def _lsm_config() -> LsmConfig:
    return LsmConfig(sst_bytes=128 * KIB, append_chunk=32 * KIB,
                     flush_interval_ns=us(1_000), readers=2,
                     read_interval_ns=us(40))


def _one_mode(config: ExperimentConfig, mode: str) -> list[dict]:
    if config.fleet_tenants < 1:
        raise ValueError("fig7_fleet needs at least one serving tenant")
    sim, device = build_device(
        config, profile=_fleet_profile(config), seed_salt="fleet"
    )
    runtime = config.fleet_runtime_ns
    counts = [_SERVE_ZONES] * config.fleet_tenants + [_STORM_ZONES]
    parts = partition_zones(device.zones.num_zones, counts)
    slo_ns = round(config.fleet_slo_p99_us * 1_000)

    scheduler = TenantScheduler(device)
    workloads = {}
    for i in range(config.fleet_tenants):
        tenant = Tenant(device, f"serve{i}", zones=parts[i], index=i,
                        seed=config.seed, slo_p99_ns=slo_ns)
        workload = LsmWorkload(tenant, runtime, _lsm_config())
        scheduler.add_workload(tenant, workload, kind="lsm")
        workloads[tenant.name] = workload
    if mode == "reset-storm":
        reclaim = Tenant(device, "reclaim", zones=parts[-1],
                         index=config.fleet_tenants, seed=config.seed)
        storm = ResetStorm(reclaim, runtime, refill="write",
                           pace_ns=us(200))
        scheduler.add_workload(reclaim, storm, kind="reclaim")

    rows = []
    for result in scheduler.run():
        workload = workloads.get(result.tenant)
        rows.append({
            "mode": mode,
            "tenant": result.tenant,
            "workload": result.workload,
            "reads": result.ops,
            "read_p50_us": round(result.p50_us, 2) if result.ops else "-",
            "read_p99_us": round(result.p99_us, 2) if result.ops else "-",
            "slo_p99_us": result.slo_p99_us if result.slo_p99_us else "-",
            "slo_violations": result.slo_violations,
            "slo_met": (
                "-" if result.slo_p99_us is None or not result.ops
                else "yes" if result.p99_us <= result.slo_p99_us else "NO"
            ),
            "flushes": workload.flushes if workload is not None else "-",
            "compactions": (
                workload.compactions if workload is not None else "-"
            ),
            "resets": result.resets,
            "reset_p95_ms": (
                round(result.reset_p95_ms, 2) if result.resets else "-"
            ),
            "errors": sum(result.errors.values()),
            "errors_by_owner": ",".join(
                f"{owner}:{count}"
                for owner, count in sorted(result.errors_by_owner.items())
            ) or "-",
        })
    return rows


def _fleet_describe(config: ExperimentConfig) -> dict:
    return {
        "title": (
            "multi-tenant serving fleet under a co-located reclaim "
            "tenant (Obs #11–13)"
        ),
        "columns": [
            "mode", "tenant", "workload", "reads", "read_p50_us",
            "read_p99_us", "slo_p99_us", "slo_violations", "slo_met",
            "flushes", "compactions", "resets", "reset_p95_ms", "errors",
            "errors_by_owner",
        ],
        "notes": [
            f"{config.fleet_tenants} LSM serving tenant(s) on "
            f"{_SERVE_ZONES}-zone partitions; reclaim tenant refills "
            "with real appends (pure resets never delay I/O here)",
        ],
    }


def _fleet_plan(config: ExperimentConfig) -> list:
    return [{"mode": mode} for mode in FLEET_MODES]


def _fleet_point(config: ExperimentConfig, params: dict) -> dict:
    return {"rows": _one_mode(config, params["mode"])}


def _fleet_fold(result: ExperimentResult, config: ExperimentConfig,
                payloads: list) -> None:
    """Cross-mode attribution: victim p99 inflation + reset stalling."""
    def serving_p99s(mode: str) -> list[float]:
        return [
            row["read_p99_us"] for row in result.rows
            if row["mode"] == mode and row["workload"] == "lsm"
            and isinstance(row["read_p99_us"], (int, float))
        ]

    base, storm = serving_p99s("baseline"), serving_p99s("reset-storm")
    if base and storm and all(p > 0 for p in base):
        inflation = (sum(storm) / len(storm)) / (sum(base) / len(base))
        result.meta["read_p99_inflation"] = round(inflation, 3)
        result.notes.append(
            f"victim read p99 inflated {inflation:.2f}x by the "
            "co-located reclaim tenant (Obs #12/#13 replayed fleet-side)"
        )
    violations = {
        mode: sum(
            row["slo_violations"] for row in result.rows
            if row["mode"] == mode and row["workload"] == "lsm"
        )
        for mode in FLEET_MODES
    }
    result.meta["slo_violations"] = violations


FIG7_FLEET_PLAN = ExperimentPlan(
    "fig7_fleet", _fleet_plan, _fleet_point, _fleet_describe, _fleet_fold
)
