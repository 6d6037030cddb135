"""Record output digests of the workloads at given seeds.

    python3 perfbench/record_digests.py SEED ...

Run it from the repository root after an intended change of simulated
output. For each workload and seed it runs one
untraced unit and writes the unit's digest into ``digests.json``,
keeping the entries of other seeds. ``run.py`` checks a run's digest
whenever one is recorded for its workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DIGESTS, WORKLOADS, run_unit  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=lambda t: int(t, 0))
    args = parser.parse_args(argv)

    with open(DIGESTS) as fh:
        digests = json.load(fh)
    for workload in WORKLOADS.values():
        for seed in args.seeds:
            digest = run_unit(workload, seed, time.perf_counter).digest
            digests.setdefault(workload.name, {})[str(seed)] = digest
            print(f"{workload.name} seed {seed}: {digest}", flush=True)
            # Written after every unit, so an interrupted run keeps its work.
            with open(DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
