"""Child-process side of the benchmark: one fresh interpreter per job.

``python3 perfbench/worker.py pass JOB.json``
    One pass of a batch workload: import the program, probe the
    environment, run the pass's operations, check every result, and
    print one JSON line of measurements.
``python3 perfbench/worker.py reference JOB.json``
    In-process ``simulate()`` of each spec, printed as the canonical
    body the server would send (without the wall-clock field).
``python3 perfbench/worker.py server CACHE_DIR TRACE REPORT.json SPANS.jsonl``
    ``repro serve`` through ``run_server`` on an ephemeral port, with
    the tracing wrappers installed first when TRACE is 1.  On drain it
    writes peak memory (and the traced metrics) to REPORT.json, and
    the spans to SPANS.jsonl when traced.

The program is found through ``PYTHONPATH``, which the parent sets.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import tracing


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_environment() -> dict:
    """Import the program, resolve the tick kernel and backend, build the registries."""
    import numpy

    from repro.api.registry import DELAYS, INITIALS, PROTOCOLS, STOPS, TOPOLOGIES
    from repro.core.backend import active_backend_name
    from repro.core.hazard_kernel import active_kernel_name

    registries = {"protocols": PROTOCOLS, "topologies": TOPOLOGIES, "initials": INITIALS,
                  "delays": DELAYS, "stops": STOPS}
    registry_sizes = {name: len(registry.names()) for name, registry in registries.items()}
    return {
        "kernel": active_kernel_name(),
        "backend": active_backend_name(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "registry_sizes": registry_sizes,
    }


def check_run(spec: dict, run) -> list:
    """Failure messages for one replication of *spec* (empty when it passed)."""
    problems = []
    if sum(run.final.counts) != spec["n"]:
        problems.append(f"final counts sum to {sum(run.final.counts)}, not n={spec['n']}")
    budget = spec.get("max_steps")
    if budget is not None:
        if run.converged or run.rounds < budget:
            problems.append(f"budget point stopped at {run.rounds} of {budget} ticks (converged={run.converged})")
    elif not run.converged:
        problems.append("did not converge within budget")
    elif not run.plurality_preserved:
        problems.append("plurality not preserved")
    return problems


def check_result(result) -> list:
    spec = result.spec.to_dict()
    problems = []
    if len(result.runs) != spec["reps"]:
        problems.append(f"{len(result.runs)} runs for reps={spec['reps']}")
    for run in result.runs:
        problems.extend(check_run(spec, run))
    return [f"{spec['protocol']}/{spec['model']}/n={spec['n']}: {p}" for p in problems]


class TimedSerialExecutor:
    """The program's serial executor, timing each campaign point it yields."""

    name = "serial"

    def __init__(self):
        self.point_seconds = []

    def map_payloads(self, payloads):
        from repro.api.executors import SerialExecutor

        inner = SerialExecutor().map_payloads(payloads)
        while True:
            start = time.perf_counter()
            try:
                payload = next(inner)
            except StopIteration:
                return
            self.point_seconds.append(time.perf_counter() - start)
            yield payload


def run_pass(job: dict) -> dict:
    env = probe_environment()
    ready = time.monotonic()
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import repro.api.campaign as campaign_module
    import repro.api.runner as runner
    from repro.api import CampaignSpec, SimulationSpec

    # An operation that raises counts as failed; the pass goes on.
    failures = []
    failed = attempted = 0
    op_seconds = []
    results = []
    start = time.perf_counter()
    if job["workload"] == "kn-sweep":
        campaign = CampaignSpec.from_dict(job["campaign"])
        # The points, plus one check that a fresh cache served no point.
        attempted = campaign.size + 1
        executor = TimedSerialExecutor()
        try:
            outcome = campaign_module.run_campaign(campaign, executor=executor, cache=job["cache_dir"])
        except Exception as exc:  # noqa: BLE001 - reported as failed operations
            failures.append(f"run_campaign raised {type(exc).__name__}: {exc}")
            failed = attempted
        else:
            results = outcome.results()
            op_seconds = executor.point_seconds
            if outcome.engine_runs != len(results):
                failures.append(f"{outcome.engine_runs} engine runs for {len(results)} cold points")
                failed += 1
    else:
        for payload in job["specs"]:
            attempted += 1
            op_start = time.perf_counter()
            try:
                results.append(runner.simulate(SimulationSpec.from_dict(payload)))
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                failures.append(f"{payload['protocol']}/n={payload['n']}: simulate raised {type(exc).__name__}: {exc}")
                failed += 1
            op_seconds.append(time.perf_counter() - op_start)
    wall = time.perf_counter() - start
    for result in results:
        problems = check_result(result)
        failed += bool(problems)
        failures.extend(problems)
    ticks = sum(run.parallel_time * run.final.n for result in results for run in result.runs)
    layers = None
    if tracer is not None:
        layers = tracing.summarize(tracer.spans)
        tracing.dump(tracer.spans, job["spans_out"])
    return {
        "ready": ready,
        "env": env,
        "wall_s": wall,
        "ticks": ticks,
        "op_ms": [1e3 * s for s in op_seconds],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
    }


def canonical_body(payload: dict) -> str:
    """A result payload as the server serializes it, minus its wall-clock field."""
    payload = dict(payload)
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_reference(job: dict) -> dict:
    from repro.api import SimulationSpec, simulate

    env = probe_environment()
    bodies = [canonical_body(simulate(SimulationSpec.from_dict(spec)).to_dict()) for spec in job["specs"]]
    return {"env": env, "bodies": bodies}


def run_serve(cache_dir: str, trace: bool, report_path: str, spans_path: str) -> int:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.api.serve import run_server

    code = run_server(port=0, cache_dir=cache_dir, workers=2, executor="serial")
    report = {"peak_rss_mb": peak_rss_mb(), "layers": None}
    if tracer is not None:
        spans = tracing.after_marker(tracer.spans, "api.serve.healthz", 2)
        report["layers"] = tracing.summarize(spans)
        tracing.dump(spans, spans_path)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


def main(argv) -> int:
    mode = argv[1]
    if mode == "server":
        return run_serve(argv[2], argv[3] == "1", argv[4], argv[5])
    with open(argv[2], encoding="utf-8") as handle:
        job = json.load(handle)
    out = run_pass(job) if mode == "pass" else run_reference(job)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
