"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload kn-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` prints the per-layer metrics
from spans recorded around each layer (see perfbench/README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers for a reader, with the environment and the
serve-only latencies.  A copy with the environment is written to
``.perfbench_work/results/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from typing import Any, Dict, List

import common
import serve_load
import tracing
import workloads

#: fewest passes per run of a batch workload (medians need a few).
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ticks_per_s": "ticks/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: per-layer metrics the serve side measures from the client and /healthz.
SERVE_LAYER_UNITS = {
    "api.serve.coalesced": "count",
    "api.serve.refused": "count",
    "api.serve.generator_late_p99_ms": "ms",
    "api.serve.hit_p50_ms": "ms",
    "api.serve.miss_p50_ms": "ms",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit."""
    units = {}
    for name in tracing.summarize([]):
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name == "engine.ns_per_tick":
            units[name] = "ns"
        elif name == "api.cache.bytes_written":
            units[name] = "bytes"
        elif name == "core.hazard.cuts_per_call":
            units[name] = "ratio"
        else:
            units[name] = "count"
    units.update(SERVE_LAYER_UNITS)
    units["trace.overhead_s"] = "s"
    return units


def run_batch(root: str, work: str, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Fresh-process passes of a batch workload until *seconds* are used.

    In a traced run, passes alternate traced and untraced, starting
    traced; the untraced ones give the tracing overhead.
    """
    passes: List[Dict[str, Any]] = []
    attempted = failed = 0
    failures: List[str] = []
    start = time.monotonic()
    min_passes = MIN_PASSES + (1 if trace else 0)
    while True:
        index = len(passes)
        traced = trace and index % 2 == 0
        job = {"workload": workload, "trace": traced,
               "cache_dir": os.path.join(work, f"cache-{index}"),
               "spans_out": os.path.join(root, common.WORK_ROOT, f"spans-{workload}.jsonl")}
        if workload == "kn-sweep":
            job["campaign"] = workloads.kn_sweep_campaign(seed, index)
        elif workload == "sparse-graph":
            job["specs"] = workloads.sparse_graph_specs(seed, index)
        else:
            job["specs"] = workloads.paper_async_specs(seed, index)
        out = common.run_worker(root, "pass", job, os.path.join(work, f"pass-{index}.json"))
        out["setup_s"] = out["ready"] - out["spawned"]
        out["traced"] = traced
        passes.append(out)
        attempted += out["attempted"]
        failed += out["failed"]
        failures.extend(out["failures"])
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    envs = {json.dumps(p["env"], sort_keys=True) for p in passes}
    if len(envs) != 1:
        raise RuntimeError(f"passes saw different environments: {sorted(envs)}")
    plain = [p for p in passes if not p["traced"]]
    out = {
        "env": passes[0]["env"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            "setup_s": common.median([p["setup_s"] for p in plain]),
            "wall_s": common.median([p["wall_s"] for p in plain]),
            "ticks_per_s": common.median([p["ticks"] / p["wall_s"] for p in plain]),
            "op_p50_ms": common.median([common.median(p["op_ms"]) for p in plain]),
            "peak_rss_mb": common.median([p["peak_rss_mb"] for p in plain]),
        },
        "extra": {"ops_per_pass": len(passes[0]["op_ms"]), "passes": len(passes)},
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        layers = {
            name: common.median([p["layers"][name] for p in traced_passes])
            for name in traced_passes[0]["layers"]
        }
        layers.update({name: 0.0 for name in SERVE_LAYER_UNITS})
        layers["trace.overhead_s"] = (
            common.median([p["wall_s"] for p in traced_passes]) - out["metrics"]["wall_s"]
        )
        out["layers"] = layers
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = os.path.join(root, common.WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "serve-mixed":
            out = serve_load.run(root, work, args.seed, args.seconds, trace)
        else:
            out = run_batch(root, work, args.workload, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layer_units() if trace else END_TO_END_UNITS
    values = out["layers"] if trace else out["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    error_rate = out["failed"] / out["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(out["env"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'error_rate':40s} {error_rate:14.6g} ratio ({out['failed']} of {out['attempted']})")
    for name, value in out["extra"].items():
        print(f"  {name:40s} {value:14.6g}")
    for failure in out["failures"][:20]:
        print(f"  FAILED: {failure}")

    if not all(math.isfinite(entry["value"]) for entry in metrics.values()):
        # Failed requests count as infinitely slow; with most of them
        # failed there is no result to report.
        print("perfbench: a metric is not finite; too many operations failed", file=sys.stderr)
        return 1
    summary = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    results_dir = os.path.join(root, common.WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=out["env"], extra=out["extra"], failures=out["failures"])
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
