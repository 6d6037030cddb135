"""Self-test of the benchmark's determinism and checks.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload (all three by default) it runs ``run.py`` twice at
the default seed 0x5EED and once at the held-out seed 0xC0FFEE, which
has no recorded digest, one unit each, and fails unless

* the two runs at one seed give the same digest and the same counts;
* every run passes its checks (error_rate 0): digest where one is
  recorded, observation predicates, anchors, FTL accounting.

Exit status 0 means all of that held. Each run's record is kept under
``.perfbench/selftest/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: A seed with no recorded digest: only predicates and anchors gate it.
HELD_OUT_SEED = 0xC0FFEE


def run(workload: str, seed: int, tag: str) -> dict:
    out = os.path.join(ROOT, ".perfbench", "selftest", f"{workload}-{tag}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}\n{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)


def failures(record: dict) -> list[str]:
    return [f"{c['check']}: {c['detail'].strip()}"
            for c in record["checks"] if not c["ok"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    problems = []
    for name in args.workload or list(WORKLOADS):
        first = run(name, DEFAULT_SEED, "a")
        second = run(name, DEFAULT_SEED, "b")
        held = run(name, HELD_OUT_SEED, "held-out")
        a, b = first["units"][0], second["units"][0]
        if a["digest"] != b["digest"]:
            problems.append(f"{name}: digests differ at seed {DEFAULT_SEED}")
        if a["counts"] != b["counts"]:
            problems.append(f"{name}: counts differ at seed {DEFAULT_SEED}")
        for tag, record in (("a", first), ("b", second), ("held-out", held)):
            problems += [f"{name} [{tag}, seed {record['seed']}] {f}"
                         for f in failures(record)]
        print(f"{name}: seed {DEFAULT_SEED} x2 digest {a['digest'][:16]}, "
              f"held-out seed {HELD_OUT_SEED} digest "
              f"{held['units'][0]['digest'][:16]}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
