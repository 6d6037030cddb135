#!/usr/bin/env python
"""Run a fast version of the paper's characterization sweep.

Reproduces (at reduced statistical scale — pass ``--full`` for the
benchmark-grade settings) the paper's core latency/transition
experiments, prints the figure tables, then evaluates the observations
and renders Table I with validation status.

Run: ``python examples/characterize_device.py [--full]``
"""

import argparse

from repro.core import ExperimentConfig, check_all, table1, table2
from repro.exec import execute_experiments
from repro.sim import ms

#: The cheap-but-complete subset (the interference experiments take
#: minutes; the benchmark harness covers those).
FAST_EXPERIMENTS = ["fig2a", "fig2b", "fig3", "fig4a", "fig4b", "obs9", "fig5a", "fig5b"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run every experiment at benchmark scale "
                             "(several minutes)")
    args = parser.parse_args()

    if args.full:
        config, ids = ExperimentConfig(), None
    else:
        config = ExperimentConfig(
            point_runtime_ns=ms(3), ramp_ns=ms(0.5), zones_per_level=5,
        )
        ids = FAST_EXPERIMENTS

    print(table2())
    print()
    results, _report = execute_experiments(ids, config)
    for result in results.values():
        print(result.table())
        print()

    checks = check_all(results)
    print("observation checks:")
    for check in checks:
        print(f"  {check}")
    print()
    print(table1(checks))
    reproduced = sum(c.passed for c in checks)
    print(f"\n{reproduced}/{len(checks)} evaluated observations reproduced "
          "on the simulated ZN540")


if __name__ == "__main__":
    main()
