"""§III-F Fig. 6 + Observation #11: ZNS vs conventional NVMe under GC.

The paper's setup: both devices share the same hardware; on the
conventional SSD garbage collection runs inside the FTL, on ZNS the
benchmark itself reclaims zones with resets. Writers are 4 threads of
128 KiB requests at QD8 (random overwrites on the conventional device,
appends over a zone set with host resets on ZNS); a separate thread
issues 4 KiB random reads.

We report:

* **Fig. 6a/6b** — write and read throughput over time for both devices
  at the unthrottled (peak ≈ 1,155 MiB/s) setting, plus stability
  metrics (coefficient of variation);
* **Obs. #11 tails** — read p95 when idle vs under the write flood
  (paper: 81.41 µs idle; 98.04 ms ZNS vs 299.89 ms conventional under
  load, QD1 reads).

Scale substitutions (DESIGN.md §7): the conventional device uses a
capacity-scaled geometry (~12 GiB) — steady-state GC behaviour depends
on the *fractions* (overprovisioning, utilization), not absolute
capacity — and the 20-minute wall-clock runs become seconds of simulated
time.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ...conv.device import ConvDevice
from ...faults.plan import resolve
from ...flash.geometry import FlashGeometry
from ...hostif.namespace import LBA_4K
from ...sim.engine import Simulator, ms
from ...sim.rng import StreamFactory
from ...stacks.spdk import SpdkStack
from ...workload.job import IoKind, JobSpec, Pattern
from ...workload.runner import JobRunner
from ...zns.profiles import sn640, zn540
from .common import KIB, MIB, ExperimentConfig, build_device
from .points import ExperimentPlan

__all__ = [
    "conv_experiment_profile",
    "FIG6_PLAN",
    "FIG6_RATES_PLAN",
    "OBS11_PLAN",
]

WRITE_THREADS = 4
WRITE_QD = 8
WRITE_BS = 128 * KIB
READ_BS = 4 * KIB


def conv_experiment_profile():
    """The SN640 profile on a capacity-scaled (~12 GiB) geometry."""
    geometry = FlashGeometry(
        channels=8,
        dies_per_channel=4,
        planes_per_die=2,
        blocks_per_plane=48,
        pages_per_block=256,
        page_size=16 * KIB,
    )
    return sn640(geometry=geometry)


def _build_conv(config: ExperimentConfig):
    sim = Simulator()
    device = ConvDevice(
        sim, conv_experiment_profile(), lba_format=LBA_4K,
        streams=StreamFactory(config.seed),
        faults=resolve(config.faults),
        telemetry=config.telemetry,
    )
    # 92% utilization (a heavily filled enterprise device) plus enough
    # random churn to reach the greedy-GC steady state before measuring.
    device.precondition(0.92, steady_state_churn=1.5, seed=config.seed)
    return sim, device


def _zns_setup(config: ExperimentConfig):
    sim, device = build_device(config, profile=zn540(num_zones=24))
    # Pre-fill a read region (reads and writes target disjoint zones).
    read_zones = list(range(16, 24))
    for z in read_zones:
        device.force_fill(z, device.zones.zones[z].cap_lbas)
    write_zones = list(range(0, 8))
    return sim, device, write_zones, read_zones


def _writer_job(zones_or_range, runtime_ns: int, kind: str,
                rate_limit_bps=None, seed=0) -> JobSpec:
    common = dict(
        block_size=WRITE_BS,
        runtime_ns=runtime_ns,
        iodepth=WRITE_QD,
        numjobs=WRITE_THREADS,
        rate_limit_bps=rate_limit_bps,
        seed=seed,
    )
    if kind == "zns":
        # Appends over a set of zones with host-managed resets.
        return JobSpec(op=IoKind.APPEND, zones=zones_or_range,
                       reset_when_full=True, **common)
    return JobSpec(op=IoKind.WRITE, pattern=Pattern.RANDOM,
                   address_range=zones_or_range, **common)


def _run_device(config: ExperimentConfig, kind: str, with_reader: bool,
                reader_qd: int = 32, rate_limit_bps=None,
                with_writer: bool = True):
    """One timeline run; returns (write JobResult|None, read JobResult|None)."""
    if kind == "zns":
        sim, device, write_zones, read_zones = _zns_setup(config)
        write_target = write_zones
    else:
        sim, device = _build_conv(config)
        write_target = (0, device.namespace.capacity_lbas)
    runtime = config.interference_runtime_ns
    events = []
    writer = None
    if with_writer:
        writer = JobRunner(
            device, SpdkStack(device, enforce_write_serialization=False),
            _writer_job(write_target, runtime, kind, rate_limit_bps, config.seed),
            ts_interval_ns=ms(50),
        )
        events.append(writer.start())
    reader = None
    if with_reader:
        if kind == "zns":
            read_job = JobSpec(op=IoKind.READ, block_size=READ_BS,
                               pattern=Pattern.RANDOM, iodepth=reader_qd,
                               zones=read_zones, runtime_ns=runtime,
                               seed=config.seed + 1)
        else:
            read_job = JobSpec(op=IoKind.READ, block_size=READ_BS,
                               pattern=Pattern.RANDOM, iodepth=reader_qd,
                               address_range=(0, device.namespace.capacity_lbas),
                               runtime_ns=runtime, seed=config.seed + 1)
        reader = JobRunner(device, SpdkStack(device), read_job, ts_interval_ns=ms(50))
        events.append(reader.start())
    sim.run(until=sim.all_of(events))
    return (writer.result if writer else None), (reader.result if reader else None)


def _stability(values: np.ndarray) -> float:
    """Coefficient of variation of a throughput series (lower = stabler)."""
    if len(values) == 0 or float(np.mean(values)) == 0.0:
        return 0.0
    return float(np.std(values) / np.mean(values))


def _fig6_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Throughput under write flood + concurrent reads (ZNS vs NVMe)",
        "columns": ["device", "metric", "mean_mibs", "cov", "min_mibs", "max_mibs"],
        "notes": [
            "paper runs 20 wall-clock minutes; we run a shorter simulated "
            "window at identical steady-state conditions (DESIGN.md §7)",
        ],
    }


def _fig6_plan(config: ExperimentConfig) -> list:
    return [{"kind": kind} for kind in ("zns", "conv")]


def _fig6_point(config: ExperimentConfig, params: dict) -> dict:
    kind = params["kind"]
    write_res, read_res = _run_device(config, kind, with_reader=True)
    # Drop the first (start-up) and last (partially covered) buckets
    # from the stability statistics.
    wseries = write_res.timeseries.bandwidth_values()[1:-1]
    rseries = read_res.timeseries.bandwidth_values()[1:-1]
    return {
        "rows": [
            {
                "device": kind, "metric": "write",
                "mean_mibs": float(np.mean(wseries)) if len(wseries) else 0.0,
                "cov": _stability(wseries),
                "min_mibs": float(np.min(wseries)) if len(wseries) else 0.0,
                "max_mibs": float(np.max(wseries)) if len(wseries) else 0.0,
            },
            {
                "device": kind, "metric": "read",
                "mean_mibs": float(np.mean(rseries)) if len(rseries) else 0.0,
                "cov": _stability(rseries),
                "min_mibs": float(np.min(rseries)) if len(rseries) else 0.0,
                "max_mibs": float(np.max(rseries)) if len(rseries) else 0.0,
            },
        ],
        "series": [
            [f"{kind}-write",
             [list(p) for p in write_res.timeseries.bandwidth_series()]],
            [f"{kind}-read",
             [list(p) for p in read_res.timeseries.bandwidth_series()]],
        ],
    }


FIG6_PLAN = ExperimentPlan("fig6", _fig6_plan, _fig6_point, _fig6_describe)


def _fig6_rates_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Write-throughput stability vs rate limit (ZNS vs NVMe)",
        "columns": ["device", "rate_limit_mibs", "write_mean_mibs", "write_cov"],
        "notes": ["paper: ZNS stable at every rate; conventional fluctuates"],
    }


def _fig6_rates_plan(config: ExperimentConfig) -> list:
    return [
        {"kind": kind, "rate_mibs": rate_mibs}
        for kind in ("zns", "conv")
        for rate_mibs in (250, 750, 1_155)
    ]


def _fig6_rates_point(config: ExperimentConfig, params: dict) -> dict:
    kind, rate_mibs = params["kind"], params["rate_mibs"]
    write_res, _ = _run_device(
        config, kind, with_reader=True,
        rate_limit_bps=rate_mibs * MIB,
    )
    values = write_res.timeseries.bandwidth_values()[1:-1]
    return {"rows": [{
        "device": kind,
        "rate_limit_mibs": rate_mibs,
        "write_mean_mibs": float(np.mean(values)) if len(values) else 0.0,
        "write_cov": _stability(values),
    }]}


#: The rate-limited Fig. 6 configurations (250/750/1,155 MiB/s). The
#: paper reports (without plotting) that on ZNS "both write and read
#: throughput remains stable in all rate-limiting configurations", while
#: the conventional device fluctuates whenever concurrent writes run. We
#: sweep the same fio-style rate caps on both devices.
FIG6_RATES_PLAN = ExperimentPlan(
    "fig6rates", _fig6_rates_plan, _fig6_rates_point, _fig6_rates_describe
)


def _obs11_describe(config: ExperimentConfig) -> dict:
    return {
        "title": "Random-read p95 latency, idle vs concurrent write flood",
        "columns": ["device", "condition", "read_p95", "unit"],
    }


def _obs11_plan(config: ExperimentConfig) -> list:
    return [
        {"kind": kind, "condition": condition}
        for kind in ("zns", "conv")
        for condition in ("idle", "write-flood")
    ]


def _obs11_point(config: ExperimentConfig, params: dict) -> dict:
    kind, condition = params["kind"], params["condition"]
    if condition == "idle":
        # Idle reads (QD32, as in the paper's read-only measurement).
        _, idle_res = _run_device(
            replace(config, interference_runtime_ns=ms(40)),
            kind, with_reader=True, reader_qd=32, with_writer=False,
        )
        row = {
            "device": kind, "condition": "idle",
            "read_p95": idle_res.latency.percentile_us(95), "unit": "us",
        }
    else:
        # Reads at QD1 under the full-rate write flood. QD1 yields only a
        # handful of completions per second on a flooded device, so run
        # this point longer for a usable tail estimate.
        loaded_cfg = replace(
            config, interference_runtime_ns=2 * config.interference_runtime_ns
        )
        _, loaded_res = _run_device(loaded_cfg, kind, with_reader=True, reader_qd=1)
        row = {
            "device": kind, "condition": "write-flood",
            "read_p95": loaded_res.latency.percentile_ns(95) / 1e6, "unit": "ms",
        }
    return {"rows": [row]}


OBS11_PLAN = ExperimentPlan("obs11", _obs11_plan, _obs11_point, _obs11_describe)
