"""Point-level decomposition of the paper experiments.

Every experiment is a sweep over independent *points* (one measurement
configuration each — a fresh simulator, deterministically seeded from
the :class:`ExperimentConfig`). This module gives that structure a
first-class API so the execution engine (:mod:`repro.exec`) can fan
points out over worker processes and cache them individually:

* :class:`ExperimentPlan` — an experiment's decomposition:
  ``plan(config)`` lists the point parameter dicts, ``point(config,
  params)`` runs one point and returns a JSON-able payload, and
  ``describe(config)`` gives the table skeleton the payloads are
  assembled into.
* :func:`assemble` — folds point payloads (in plan order) back into
  one :class:`~repro.core.results.ExperimentResult`.
* :func:`run_via_points` — the serial reference: plan → points →
  assemble in one process, with no cache and no canonicalization. The
  tests compare :func:`repro.exec.execute_experiments` against it.

Payload protocol (everything JSON-able, so payloads can be cached and
shipped across process boundaries losslessly): ``{"rows": [...],
"series": [[key, [[x, y], ...]], ...]}``, rows/series fragments
appended in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..results import ExperimentResult
from .common import ExperimentConfig

__all__ = [
    "ExperimentPlan",
    "assemble",
    "experiment_plans",
    "point_label",
    "run_via_points",
    "serialize_result",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's decomposition into independent sweep points."""

    experiment_id: str
    #: config → ordered list of JSON-able point parameter dicts.
    plan: Callable[[ExperimentConfig], list]
    #: (config, params) → JSON-able payload for one point.
    point: Callable[[ExperimentConfig, dict], dict]
    #: config → ExperimentResult skeleton fields (id/title/columns/
    #: notes/meta).
    describe: Callable[[ExperimentConfig], dict]
    #: Optional in-process post-assembly hook: ``fold(result, config,
    #: payloads)`` runs after the rows/series fold, always in the
    #: assembling process. Cross-point derivations (verdicts comparing
    #: every point against a reference point) and non-JSON-able values
    #: (int-keyed dicts, which a JSON round-trip would stringify)
    #: belong here rather than in the point payloads.
    fold: Optional[
        Callable[[ExperimentResult, ExperimentConfig, list], None]
    ] = None


def point_label(params: dict) -> str:
    """Human-readable identity of one point (profiles, error reports)."""
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def serialize_result(result: ExperimentResult) -> dict:
    """A JSON-able image of an ExperimentResult (exact round-trip)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "series": {k: [list(p) for p in v] for k, v in result.series.items()},
        "notes": list(result.notes),
        "meta": dict(result.meta),
    }


def assemble(
    plan: ExperimentPlan, config: ExperimentConfig, payloads: list[dict]
) -> ExperimentResult:
    """Fold point payloads (in plan order) into the final result."""
    skeleton = plan.describe(config)
    result = ExperimentResult(
        experiment_id=skeleton.get("experiment_id", plan.experiment_id),
        title=skeleton["title"],
        columns=list(skeleton["columns"]),
        notes=list(skeleton.get("notes", [])),
        meta=dict(skeleton.get("meta", {})),
    )
    for payload in payloads:
        for row in payload.get("rows", []):
            result.rows.append(dict(row))
        for key, pairs in payload.get("series", []):
            result.series.setdefault(key, []).extend(
                tuple(pair) for pair in pairs
            )
    if plan.fold is not None:
        plan.fold(result, config, payloads)
    return result


def run_via_points(
    plan: ExperimentPlan, config: Optional[ExperimentConfig] = None
) -> ExperimentResult:
    """Serial reference path: run every point in order and assemble."""
    config = config or ExperimentConfig()
    return assemble(plan, config, [plan.point(config, p) for p in plan.plan(config)])


def experiment_plans(auxiliary: bool = False) -> dict[str, ExperimentPlan]:
    """Experiment id → plan, in paper order (imported lazily).

    ``auxiliary=True`` appends the plans that are not part of the
    default ``repro run`` suite — today the §IV emulator-fidelity
    matrix (``sec4``), which sweeps latency *models* rather than device
    workloads. The execution engine resolves ids against the auxiliary
    registry so ``repro fidelity`` shares the cache/worker machinery,
    while the default id list (and default ``repro run`` output) stays
    the 19 paper experiments.
    """
    from .ablations import (
        ABLATION_APPEND_COST_PLAN,
        ABLATION_BUFFER_PLAN,
        ABLATION_GC_PRIORITY_PLAN,
        ABLATION_GEOMETRY_PLAN,
        ABLATION_ZONE_SIZE_PLAN,
    )
    from .aging import FIG8_AGING_PLAN
    from .fleet import FIG7_FLEET_PLAN
    from .io_interference import FIG6_PLAN, FIG6_RATES_PLAN, OBS11_PLAN
    from .lba_format import FIG2A_PLAN, FIG2B_PLAN
    from .qd_latency import FIG8_PLAN
    from .request_size import FIG3_PLAN
    from .reset_interference import FIG7_PLAN
    from .scalability import FIG4A_PLAN, FIG4B_PLAN, FIG4C_PLAN
    from .state_machine import FIG5A_PLAN, FIG5B_PLAN, OBS9_PLAN

    plans = [
        FIG2A_PLAN,
        FIG2B_PLAN,
        FIG3_PLAN,
        FIG4A_PLAN,
        FIG4B_PLAN,
        FIG4C_PLAN,
        OBS9_PLAN,
        FIG5A_PLAN,
        FIG5B_PLAN,
        FIG6_PLAN,
        OBS11_PLAN,
        FIG7_PLAN,
        FIG7_FLEET_PLAN,
        FIG8_PLAN,
        FIG8_AGING_PLAN,
        FIG6_RATES_PLAN,
        ABLATION_BUFFER_PLAN,
        ABLATION_APPEND_COST_PLAN,
        ABLATION_GC_PRIORITY_PLAN,
        ABLATION_GEOMETRY_PLAN,
        ABLATION_ZONE_SIZE_PLAN,
    ]
    if auxiliary:
        from ...emulators.fidelity import FIDELITY_PLAN

        plans.append(FIDELITY_PLAN)
    return {plan.experiment_id: plan for plan in plans}
