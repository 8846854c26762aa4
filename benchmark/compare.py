"""Compare two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the lines run.py appends to .bench_out/results.jsonl.  For
every (workload, trace) pair present in both, prints each metric's median on
both sides and the relative change.  Refuses (exit 2) when the two sides ran
under different Python versions or mpmath backends: timings from the
pure-Python and gmpy backends are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    groups, envs = defaultdict(lambda: defaultdict(list)), set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            envs.add((rec["env"]["python"], rec["env"]["mpmath_backend"]))
            for name, m in rec["result"]["metrics"].items():
                if m["value"] is not None:
                    groups[(rec["workload"], rec["trace"])][name].append(m["value"])
    return groups, envs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (before, env_a), (after, env_b) = load(sys.argv[1]), load(sys.argv[2])
    if len(env_a | env_b) != 1:
        print(f"refusing to compare across environments: {sorted(env_a | env_b)}",
              file=sys.stderr)
        sys.exit(2)
    for key in sorted(before.keys() & after.keys()):
        print(f"{key[0]} (trace {key[1]})")
        for name in sorted(before[key].keys() & after[key].keys()):
            a, b = statistics.median(before[key][name]), statistics.median(after[key][name])
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:40s} {a:14.6g} {b:14.6g} {change:>8s}"
                  f"  (n={len(before[key][name])}/{len(after[key][name])})")


if __name__ == "__main__":
    main()
