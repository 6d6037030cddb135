"""Shared infrastructure for the paper-reproduction benchmark harness.

Each benchmark file regenerates one table/figure of the paper at full
experiment scale, prints the resulting table (run pytest with ``-s`` to
see them; they are also written to ``benchmarks/output/``), and asserts
the observation predicates that the paper derives from it.

The pytest-benchmark timing measures the wall-clock cost of regenerating
the artifact (one round — these are simulations, not microbenchmarks).

Experiments run through the :mod:`repro.exec` engine, so the suite is

* **parallel** — sweep points fan out over ``REPRO_BENCH_JOBS`` worker
  processes (default: the CPU count; output stays byte-identical at any
  job count),
* **cached** — finished points are served from ``REPRO_BENCH_CACHE``
  (default ``.repro_cache`` at the repo root, shared with the CLI; set
  it to the empty string to benchmark everything fresh), and
* **longest-first** — cache misses are scheduled by recorded duration
  hints so the slowest points start first and the pool drains level.

Experiments shared between benchmarks (e.g. Fig. 6a/6b) additionally
run once per session via the ``results`` fixture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core import ExperimentConfig
from repro.exec import execute_experiments

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Worker processes for sweep-point fan-out (0/unset → CPU count).
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0") or 0) or (os.cpu_count() or 1)

#: Point-result cache directory; empty string disables caching.
CACHE_DIR: str | None = os.environ.get(
    "REPRO_BENCH_CACHE", str(pathlib.Path(__file__).parent.parent / ".repro_cache")
) or None


class ResultsCache:
    """Session-level store of experiment results keyed by experiment id."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._results: dict[str, object] = {}

    def get(self, exp_id: str):
        return self.get_many([exp_id])[exp_id]

    def get_many(self, exp_ids: list[str]) -> dict[str, object]:
        """Produce several experiments in one engine invocation.

        Batching lets the longest-first scheduler interleave points
        *across* experiments, so one slow sweep cannot serialize the
        tail of the run.
        """
        missing = [e for e in exp_ids if e not in self._results]
        if missing:
            produced, _report = execute_experiments(
                missing, self.config, jobs=JOBS, cache_dir=CACHE_DIR,
            )
            self._results.update(produced)
        return {e: self._results[e] for e in exp_ids}

    def peek(self, exp_id: str):
        return self._results.get(exp_id)


@pytest.fixture(scope="session")
def results() -> ResultsCache:
    return ResultsCache(ExperimentConfig())


def emit(result) -> None:
    """Print a result (table + chart) and persist under benchmarks/output/."""
    from repro.core.figures import render_figure

    text = result.table()
    if result.series:
        text += "\n\n" + render_figure(result)
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
