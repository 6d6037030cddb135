"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zns-sweep --seed 1 --seconds 5 --trace 0

Run it from the repository root. It imports the simulator from
``src/`` and exits with status 2, printing no result, when that source
is missing.

``--trace 0`` repeats whole units of the workload until ``--seconds``
have passed (at least one unit) and reports the end-to-end metrics as
medians over the units. ``--trace 1`` runs one traced unit, which
samples per-module self time and records spans, and reports the
per-layer metrics. Both modes check the outputs. Times are reference
seconds, host seconds scaled by the host's measured speed
(``hostscore.ReferenceClock``).
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(host, checks, counts and, when traced, spans) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from hostscore import REFERENCE_KEV_PER_S, ReferenceClock  # noqa: E402
from probes import LAYERS, Sampler  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Checks,
    check_anchors,
    check_repeat,
    check_unit,
    expected_digest,
    median,
    point_max_s,
    reset_p95_ms,
    run_unit,
    setup_s,
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda text: int(text, 0),
                        default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="run record path (default: "
                        ".perfbench/<workload>-seed<seed>-trace<trace>.json)")
    return parser.parse_args(argv)


def end_to_end(units, anchor_err_pct: float) -> dict:
    return {
        "wall_s": (median(units, "wall_s"), "s"),
        "setup_s": (setup_s(units), "s"),
        "sim_ms_per_s": (
            statistics.median(u.counts["sim.ns"] / 1e6 / u.simulate_s for u in units),
            "ms/s"),
        "point_max_s": (point_max_s(units), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "anchor_err_pct": (anchor_err_pct, "%"),
    }


def per_layer(traced, sampler: Sampler, error_rate: float) -> dict:
    c, probe = traced.counts, traced.probe
    split = sampler.split(traced.wall_s)
    metrics = {f"{layer}.self_s": (split[layer], "s") for layer in LAYERS}
    metrics.update({
        "conv.precondition_s": (probe.inclusive_s["conv.precondition"], "s"),
        "zns.force_fill_s": (probe.inclusive_s["zns.force_fill"], "s"),
        "sim.run_s": (probe.self_s["sim.run"], "s"),
        "core.assemble_s": (probe.inclusive_s["core.assemble"], "s"),
        "exec.canonical_s": (probe.inclusive_s["exec.canonical"], "s"),
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_s": (c["sim.events"] / traced.simulate_s, "1/s"),
        "sim.events_per_cmd": (c["sim.events"] / c["device.cmds"], "ratio"),
        "device.cmds_per_s": (c["device.cmds"] / traced.simulate_s, "1/s"),
    })
    for op in ("read", "write", "append", "zone_mgmt"):
        metrics[f"device.cmds.{op}"] = (c[f"device.cmds.{op}"], "count")
    for name in ("pages_programmed", "pages_read", "blocks_erased"):
        metrics[f"flash.{name}"] = (c[f"flash.{name}"], "count")
    host, copied, programmed = (
        c["conv.host_pages"], c["conv.gc_pages_copied"], c["conv.pages_programmed"])
    metrics.update({
        "conv.pick_victim_calls": (c["conv.pick_victim_calls"], "count"),
        "conv.gc_pages_copied": (copied, "count"),
        "conv.write_amp": ((host + copied) / host if host else 0.0, "ratio"),
        "conv.useful_program_ratio": (
            host / programmed if programmed else 0.0, "ratio"),
        "zns.resets": (c["zns.resets"], "count"),
        "zns.reset_p95_ms": (reset_p95_ms(traced), "ms"),
        "trace.overhead_ratio": (
            traced.host_s / (traced.host_s - sampler.busy_s), "ratio"),
        "error_rate": (error_rate, "ratio"),
    })
    return metrics


def give_up(checks: Checks, why: str) -> int:
    """Report the failed checks, print a result with no metrics, exit 1."""
    print(f"perfbench: {why}", file=sys.stderr)
    for record in checks.records:
        if not record["ok"]:
            print(record["detail"], file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": {}}))
    return 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]

    checks = Checks()
    seed_anchors = Checks()
    try:
        # Anchors gate at the calibration seed the tier-1 tests use; the
        # workload seed's anchors are recorded beside them (README.md,
        # "Anchors").
        anchor_err_pct = check_anchors(checks, DEFAULT_SEED)
        check_anchors(seed_anchors, args.seed)
    except Exception:
        checks.add("anchors ran", False, traceback.format_exc())
        return give_up(checks, "the anchor measurement raised")
    from repro.core.experiments.points import experiment_plans

    experiment_plans(auxiliary=True)  # import every experiment before timing
    expected = expected_digest(workload, args.seed)

    sampler = Sampler(os.path.join(SRC, "repro")) if args.trace else None
    clock = ReferenceClock()
    units = []
    started = time.perf_counter()
    clock.start()
    try:
        if sampler is not None:
            units.append(run_unit(workload, args.seed, clock, sampler=sampler))
        else:
            while (len(units) < workload.min_units
                   or time.perf_counter() - started < args.seconds):
                units.append(run_unit(workload, args.seed, clock))
                gc.collect()
    except Exception:
        checks.add("points ran", False, traceback.format_exc())
    else:
        checks.add("points ran", True, f"{len(units)} unit(s)")
    finally:
        clock.stop()
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "host_score_kev_per_s": clock.host_score,
            "reference_kev_per_s": REFERENCE_KEV_PER_S}
    if not units:
        return give_up(checks, "the workload failed before one unit finished")
    check_unit(checks, workload, units[0], expected)
    for unit in units[1:]:
        check_repeat(checks, units[0], unit)

    if sampler is not None:
        metrics = per_layer(units[0], sampler, checks.error_rate)
    else:
        metrics = end_to_end(units, anchor_err_pct)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "metrics": metrics_json,
        "units": [{"wall_s": u.wall_s, "host_s": u.host_s, "setup_calls_s": u.setup_calls,
                   "simulate_s": u.simulate_s, "point_s": u.point_s,
                   "digest": u.digest, "counts": u.counts} for u in units],
        "checks": checks.records,
        "anchors_at_seed": seed_anchors.records,
    }
    if sampler is not None:
        record["samples"] = dict(sampler.samples)
        record["spans"] = units[0].probe.spans
    out = args.out or os.path.join(
        ROOT, ".perfbench",
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"host_score={host['host_score_kev_per_s']:.1f} kev/s")
    print(f"workload {workload.name} seed {args.seed}: {len(units)} unit(s), "
          f"digest {units[0].digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"anchors at seed {args.seed}: "
          f"{seed_anchors.attempted - seed_anchors.failed}/"
          f"{seed_anchors.attempted} within tolerance (informational)")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed,"
          f" error_rate {checks.error_rate:.6g}")
    for failure in (r for r in checks.records if not r["ok"]):
        print(f"  FAILED {failure['check']}: {failure['detail'].strip()}")
    print(f"record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
