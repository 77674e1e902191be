#!/usr/bin/env python3
"""Compare two benchmark result files written under .bench_results/.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two results were not measured the same way:
a different build type, job count, workload, trace mode, run length or
number of measuring processes.
Otherwise prints every metric side by side with the relative change.
"""

import json
import sys

MUST_MATCH = ["build_type", "jobs", "workload", "trace", "seconds",
              "processes"]


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    sa, sb = a["stamp"], b["stamp"]
    differ = [k for k in MUST_MATCH if sa.get(k) != sb.get(k)]
    if differ:
        for k in differ:
            print(f"refused: {k} differs ({sa.get(k)!r} vs {sb.get(k)!r})",
                  file=sys.stderr)
        sys.exit(2)
    print(f"before: commit {sa['commit']} seed {sa['seed']} runs {sa['runs']}")
    print(f"after:  commit {sb['commit']} seed {sb['seed']} runs {sb['runs']}")
    ma = a["result"]["metrics"]
    mb = b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            print(f"  {name:32} only in before")
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        change = f"{(vb - va) / va:+.2%}" if va else "n/a"
        print(f"  {name:32} {va:>16.6g} {vb:>16.6g} {change:>9} "
              f"{ma[name]['unit']}")
    for k in ("correct", "failed", "attempted"):
        print(f"  {k:32} {a['result'][k]!s:>16} {b['result'][k]!s:>16}")


if __name__ == "__main__":
    main()
