"""§III-D Fig. 4: intra-zone vs inter-zone scalability.

* **Fig. 4a** — intra-zone: one zone, concurrency = queue depth.
  Reads/appends via SPDK; writes via io_uring + mq-deadline (the only
  way to put multiple writes in flight against one zone, §III-A).
* **Fig. 4b** — inter-zone: QD1 per zone, concurrency = number of zones
  (one thread each), all via SPDK. Capped by the max-open-zones limit
  (14 on the ZN540).
* **Fig. 4c** — bandwidth at 4/8/16 KiB: intra-zone append vs inter-zone
  write across concurrency levels.
"""

from __future__ import annotations

from ...sim.engine import ms
from ...workload.job import IoKind, JobSpec, Pattern
from .common import KIB, ExperimentConfig, build_device, measure_job
from .points import ExperimentPlan

__all__ = [
    "INTRA_LEVELS",
    "INTER_LEVELS",
    "READ_LEVELS",
    "FIG4A_PLAN",
    "FIG4B_PLAN",
    "FIG4C_PLAN",
]

INTRA_LEVELS = (1, 2, 4, 8, 16, 32)
READ_LEVELS = (1, 2, 4, 8, 16, 32, 64, 128)
INTER_LEVELS = (1, 2, 4, 8, 14)  # 14 = the device's max-open-zones limit


def _fill_zones(device, zone_ids) -> None:
    for z in zone_ids:
        device.force_fill(z, device.zones.zones[z].cap_lbas)


def _intra_point(config: ExperimentConfig, op: str, qd: int,
                 block_size: int = 4 * KIB, runtime_ns=None, ramp_ns=None,
                 warm_start: bool = False):
    """One intra-zone measurement: a single zone at queue depth ``qd``."""
    sim, device = build_device(config)
    if warm_start:
        # Steady-state bandwidth point: skip the buffer-fill transient.
        device.debug_prefill_buffer(zone_index=1)
    if op == IoKind.READ:
        _fill_zones(device, [0])
        stack_name, pattern = "spdk", Pattern.RANDOM
    elif op == IoKind.APPEND:
        stack_name, pattern = "spdk", Pattern.SEQUENTIAL
    else:
        stack_name, pattern = "iouring-mq-deadline", Pattern.SEQUENTIAL
    job = JobSpec(
        op=op,
        block_size=block_size,
        runtime_ns=runtime_ns or config.point_runtime_ns,
        ramp_ns=ramp_ns if ramp_ns is not None else config.ramp_ns,
        iodepth=qd,
        pattern=pattern,
        zones=[0],
        seed=config.seed,
    )
    return measure_job(device, stack_name, job)


def _inter_point(config: ExperimentConfig, op: str, zones: int,
                 block_size: int = 4 * KIB, runtime_ns=None, ramp_ns=None,
                 warm_start: bool = False):
    """One inter-zone measurement: QD1 per zone, one thread per zone."""
    sim, device = build_device(config)
    zone_ids = list(range(zones))
    if warm_start:
        device.debug_prefill_buffer(zone_index=zones)
    if op == IoKind.READ:
        _fill_zones(device, zone_ids)
    job = JobSpec(
        op=op,
        block_size=block_size,
        runtime_ns=runtime_ns or config.point_runtime_ns,
        ramp_ns=ramp_ns if ramp_ns is not None else config.ramp_ns,
        iodepth=1,
        numjobs=zones,
        pattern=Pattern.RANDOM if op == IoKind.READ else Pattern.SEQUENTIAL,
        zones=zone_ids,
        zone_per_thread=True,
        seed=config.seed,
    )
    return measure_job(device, "spdk", job)


def _fig4a_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Intra-zone scalability, 4 KiB (1 zone, variable QD)",
        "columns": ["op", "qd", "kiops", "mean_latency_us"],
        "notes": [
            "write = io_uring + mq-deadline (merging); read/append = SPDK",
        ],
    }


def _fig4a_plan(config: ExperimentConfig) -> list:
    return [
        {"op": op, "qd": qd}
        for op, levels in (
            (IoKind.READ, READ_LEVELS),
            (IoKind.WRITE, INTRA_LEVELS),
            (IoKind.APPEND, INTRA_LEVELS),
        )
        for qd in levels
    ]


def _fig4a_point(config: ExperimentConfig, params: dict) -> dict:
    op, qd = params["op"], params["qd"]
    # mq-deadline merged writes at QD >= 8 overdrive the flash
    # program rate: warm-start the buffer for steady state.
    warm = op == IoKind.WRITE and qd >= 8
    runtime = ms(120) if warm else None
    ramp = ms(25) if warm else None
    job_result = _intra_point(config, op, qd, runtime_ns=runtime,
                              ramp_ns=ramp, warm_start=warm)
    return {
        "rows": [{
            "op": op, "qd": qd, "kiops": job_result.kiops,
            "mean_latency_us": job_result.latency.mean_us,
        }],
        "series": [[op, [[qd, job_result.kiops]]]],
    }


def _fig4b_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Inter-zone scalability, 4 KiB (QD1, variable zones, SPDK)",
        "columns": ["op", "zones", "kiops", "mean_latency_us"],
        "notes": ["zone count capped at 14 = the ZN540 max-open-zones limit"],
    }


def _fig4b_plan(config: ExperimentConfig) -> list:
    return [
        {"op": op, "zones": zones}
        for op in (IoKind.READ, IoKind.WRITE, IoKind.APPEND)
        for zones in INTER_LEVELS
    ]


def _fig4b_point(config: ExperimentConfig, params: dict) -> dict:
    op, zones = params["op"], params["zones"]
    job_result = _inter_point(config, op, zones)
    return {
        "rows": [{
            "op": op, "zones": zones, "kiops": job_result.kiops,
            "mean_latency_us": job_result.latency.mean_us,
        }],
        "series": [[op, [[zones, job_result.kiops]]]],
    }


def _fig4c_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Bandwidth vs concurrency (intra-zone append / inter-zone write)",
        "columns": ["mode", "request_kib", "concurrency", "bandwidth_mibs"],
        "notes": [
            "concurrency = QD for appends, concurrent zones for writes",
            "bandwidth-capped points are warm-started past the "
            "buffer-fill transient (DESIGN.md §7)",
        ],
    }


def _fig4c_plan(config: ExperimentConfig) -> list:
    return [
        {"block_kib": block_kib, "level": level}
        for block_kib in (4, 8, 16)
        for level in INTER_LEVELS
    ]


def _fig4c_point(config: ExperimentConfig, params: dict) -> dict:
    block_kib, level = params["block_kib"], params["level"]
    block_size = block_kib * KIB
    # Points that can exceed the flash drain rate are warm-started
    # to measure backpressure steady state directly.
    saturating = (block_kib >= 8 and level >= 2) or block_kib >= 16
    runtime = ms(140) if saturating else None
    ramp = ms(25) if saturating else None
    append_res = _intra_point(
        config, IoKind.APPEND, level, block_size,
        runtime_ns=runtime, ramp_ns=ramp, warm_start=saturating,
    )
    write_res = _inter_point(
        config, IoKind.WRITE, level, block_size,
        runtime_ns=runtime, ramp_ns=ramp, warm_start=saturating,
    )
    return {
        "rows": [
            {"mode": "append-intra", "request_kib": block_kib,
             "concurrency": level, "bandwidth_mibs": append_res.bandwidth_mibs},
            {"mode": "write-inter", "request_kib": block_kib,
             "concurrency": level, "bandwidth_mibs": write_res.bandwidth_mibs},
        ],
        "series": [
            [f"append-{block_kib}k", [[level, append_res.bandwidth_mibs]]],
            [f"write-{block_kib}k", [[level, write_res.bandwidth_mibs]]],
        ],
    }


FIG4A_PLAN = ExperimentPlan("fig4a", _fig4a_plan, _fig4a_point, _fig4a_describe)
FIG4B_PLAN = ExperimentPlan("fig4b", _fig4b_plan, _fig4b_point, _fig4b_describe)
FIG4C_PLAN = ExperimentPlan("fig4c", _fig4c_plan, _fig4c_point, _fig4c_describe)
