"""Compare two benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.json NEW.json

The inputs are the result files ``run.py`` writes to
``.perfbench_work/results/``.  Two results measured under a different
tick kernel or array backend are refused (exit code 2): the numpy and
compiled kernels give different final counts, so their numbers do not
describe the same computation.  Otherwise the script prints each
metric's relative change and whether it stays within its bound, and
exits 1 if any metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[2], encoding="utf-8") as handle:
        new = json.load(handle)
    for field in ("kernel", "backend"):
        if base["env"][field] != new["env"][field]:
            print(f"refusing to compare: {field} {base['env'][field]!r} vs {new['env'][field]!r}",
                  file=sys.stderr)
            return 2
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare results of different workloads or trace modes", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for name, entry in new["metrics"].items():
        if name not in base["metrics"]:
            print(f"{name:40s} (not in the base result)")
            continue
        old = base["metrics"][name]["value"]
        value = entry["value"]
        change = (value - old) / old if old else 0.0
        metric = specs.get(name, {})
        loss = -change if metric.get("better") == "higher" else change
        bound = metric.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "ok" if loss <= bound else f"WORSE than bound {bound}"
            worse = worse or loss > bound
        print(f"{name:40s} {old:14.6g} -> {value:14.6g} {entry['unit']:8s} {change:+8.1%} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
