"""§III-C Fig. 3: SPDK write/append throughput vs request size (QD=1).

Synchronous single-threaded sweeps over request sizes. Because QD=1,
IOPS is the inverse of request latency (as the paper notes); bytes/s
throughput is request_size × IOPS and peaks at large requests
(Observation #3).
"""

from __future__ import annotations

from ...workload.job import IoKind, JobSpec
from .common import KIB, ExperimentConfig, build_device, measure_job
from .points import ExperimentPlan

__all__ = ["REQUEST_SIZES", "FIG3_PLAN"]

REQUEST_SIZES = tuple(k * KIB for k in (4, 8, 16, 32, 64, 128))


def _fig3_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "SPDK throughput vs request size (QD=1)",
        "columns": ["op", "request_kib", "kiops", "bandwidth_mibs", "latency_us"],
    }


def _fig3_plan(config: ExperimentConfig) -> list:
    return [
        {"op": op, "request_bytes": request_bytes}
        for op in (IoKind.WRITE, IoKind.APPEND)
        for request_bytes in REQUEST_SIZES
    ]


def _fig3_point(config: ExperimentConfig, params: dict) -> dict:
    op, request_bytes = params["op"], params["request_bytes"]
    sim, device = build_device(config)
    # Requests >= 16 KiB outrun the flash program rate at QD1, so
    # their steady-state throughput only appears once the device
    # write buffer has filled and backpressure kicks in. Warm-start
    # the buffer to skip the transient (DESIGN.md §7).
    if request_bytes >= 16 * KIB:
        device.debug_prefill_buffer(zone_index=3)
        runtime = max(config.point_runtime_ns, 120_000_000)
        ramp = max(config.ramp_ns, 30_000_000)
    else:
        runtime, ramp = config.point_runtime_ns, config.ramp_ns
    job = JobSpec(
        op=op,
        block_size=request_bytes,
        runtime_ns=runtime,
        ramp_ns=ramp,
        zones=[0, 1, 2, 3],  # enough capacity for large requests
        seed=config.seed,
    )
    job_result = measure_job(device, "spdk", job)
    return {
        "rows": [{
            "op": op,
            "request_kib": request_bytes // KIB,
            "kiops": job_result.kiops,
            "bandwidth_mibs": job_result.bandwidth_mibs,
            "latency_us": job_result.latency.mean_us,
        }],
        "series": [[op, [[request_bytes // KIB, job_result.kiops]]]],
    }


FIG3_PLAN = ExperimentPlan("fig3", _fig3_plan, _fig3_point, _fig3_describe)
