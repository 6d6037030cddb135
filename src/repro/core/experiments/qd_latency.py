"""Appendix Fig. 8: throughput/latency trade-off at varying queue depth.

Intra-zone append (SPDK) vs intra-zone write (io_uring + mq-deadline) at
4/16/32 KiB request sizes across queue depths. The paper's appendix
observes that write latency grows faster with QD than append latency up
to a threshold (~QD4), recommending appends at low queue depths.
"""

from __future__ import annotations

from ...sim.engine import ms
from ...workload.job import IoKind, JobSpec
from .common import KIB, ExperimentConfig, build_device, measure_job
from .points import ExperimentPlan

__all__ = ["QD_LEVELS", "FIG8_PLAN"]

QD_LEVELS = (1, 2, 4, 8, 16, 32)

#: (op, stack) pairs compared at every request size.
_OP_STACKS = ((IoKind.APPEND, "spdk"), (IoKind.WRITE, "iouring-mq-deadline"))


def _fig8_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "append/write throughput vs latency across queue depths",
        "columns": ["op", "request_kib", "qd", "bandwidth_mibs", "latency_us"],
        "notes": ["write = io_uring + mq-deadline intra-zone; append = SPDK intra-zone"],
    }


def _fig8_plan(config: ExperimentConfig) -> list:
    return [
        {"block_kib": block_kib, "op": op, "stack": stack, "qd": qd}
        for block_kib in (4, 16, 32)
        for op, stack in _OP_STACKS
        for qd in QD_LEVELS
    ]


def _fig8_point(config: ExperimentConfig, params: dict) -> dict:
    block_kib, op, stack, qd = (
        params["block_kib"], params["op"], params["stack"], params["qd"]
    )
    sim, device = build_device(config)
    # Bandwidth-saturating points need backpressure steady
    # state from the start (see DESIGN.md §7). A point
    # saturates when its controller-capped ingest exceeds the
    # ~1.13 GiB/s flash drain rate.
    if op == IoKind.APPEND:
        saturating = (block_kib >= 8 and qd >= 2) or block_kib >= 32
    else:
        saturating = (block_kib == 4 and qd >= 8) or block_kib >= 16
    if saturating:
        device.debug_prefill_buffer(zone_index=1)
    job = JobSpec(
        op=op,
        block_size=block_kib * KIB,
        runtime_ns=ms(90) if saturating else config.point_runtime_ns,
        ramp_ns=ms(20) if saturating else config.ramp_ns,
        iodepth=qd,
        zones=[0],
        seed=config.seed,
    )
    job_result = measure_job(device, stack, job)
    return {
        "rows": [{
            "op": op, "request_kib": block_kib, "qd": qd,
            "bandwidth_mibs": job_result.bandwidth_mibs,
            "latency_us": job_result.latency.mean_us,
        }],
        "series": [[
            f"{op}-{block_kib}k",
            [[job_result.bandwidth_mibs, job_result.latency.mean_us]],
        ]],
    }


FIG8_PLAN = ExperimentPlan("fig8", _fig8_plan, _fig8_point, _fig8_describe)
