"""The serve-mixed workload: a ``repro serve`` process under open-loop load.

The server is the program's own ``run_server`` started by
``worker.py server`` (which installs the tracing wrappers first when
asked), with 2 workers, the serial executor and a fresh cache.  The
load generator runs in this process: one thread and one keep-alive
connection per CPU, at most two, taking the requests of a fixed
schedule in order and sending each when it is due.  Latency is timed
from the moment a request was due, so a stalled connection charges its
wait to every request queued behind it; how late the generator itself
ran is reported separately.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import common
import tracing
import workloads
from worker import canonical_body

HOST = "127.0.0.1"
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: server start-ups per run; the median is ``setup_s``.
SETUP_SAMPLES = 3
#: share of ``--seconds`` the request schedule takes; the start-ups, the
#: cache warm-up and the reference runs take most of the rest.
SCHEDULE_SHARE = 0.75
REQUEST_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """One ``worker.py server`` child and the port it bound."""

    def __init__(self, root: str, work: str, name: str, trace: bool):
        self.cache_dir = os.path.join(work, f"cache-{name}")
        self.report_path = os.path.join(work, f"server-{name}.json")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, common.WORKER, "server", self.cache_dir, "1" if trace else "0",
             self.report_path, os.path.join(root, common.WORK_ROOT, "spans-serve-mixed.jsonl")],
            env=common.child_env(root),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr = []
        self._reader = threading.Thread(target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_port(lines)
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _drain(self, lines) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)
            lines.put(line)
        lines.put(None)

    def _wait_port(self, lines) -> int:
        deadline = time.monotonic() + common.WORKER_TIMEOUT
        while True:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError("server exited before listening: " + "".join(self._stderr[-3:]))
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(HOST, self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"} if body else {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> Dict[str, Any]:
        """Drain the server (SIGTERM) and return its exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=common.WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        try:
            with open(self.report_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {}


def send_schedule(port: int, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Send *requests* open-loop; one outcome per request, in order."""
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    start = time.monotonic() + 0.05  # lets both senders start before the first due time

    def sender() -> None:
        conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                break
            req = requests[index]
            due = start + req["due"]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            outcome = {"late_s": sent - due, "status": None, "body": b""}
            try:
                conn.request("POST", "/v1/simulate", json.dumps(req["spec"]).encode(),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                outcome["body"] = response.read()
                outcome["status"] = response.status
            except (OSError, http.client.HTTPException) as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
                conn.close()
                conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)
            outcome["latency_s"] = time.monotonic() - due
            outcome["done"] = time.monotonic() - start
            outcomes[index] = outcome
        conn.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _schedule_once(root: str, work: str, seed: int, seconds: float, part: int, trace: bool) -> Dict[str, Any]:
    """Start a server, warm the hot keys, run one schedule, drain."""
    server = Server(root, work, f"main{part}", trace)
    try:
        hot_bodies = []
        for spec in workloads.serve_hot_specs(seed):
            status, body = server.request("POST", "/v1/simulate", json.dumps(spec).encode())
            if status != 200:
                raise RuntimeError(f"warming a hot key answered {status}")
            hot_bodies.append(body)
        # The second /healthz marks where the traced metrics start.
        server.request("GET", "/healthz")
        requests = workloads.serve_schedule(seed, seconds, part)
        outcomes = send_schedule(server.port, requests)
        status, health = server.request("GET", "/healthz")
        health = json.loads(health) if status == 200 else {}
    finally:
        report = server.stop()
    if "peak_rss_mb" not in report:
        raise RuntimeError(f"server exited {server.proc.returncode} without writing its report")
    return {
        "setup_s": server.setup_s,
        "hot_bodies": hot_bodies,
        "requests": requests,
        "outcomes": outcomes,
        "health": health,
        "report": report,
    }


def _references(root: str, work: str, specs: List[Dict[str, Any]]):
    """Canonical in-process bodies of *specs* and the environment probed
    while computing them, using one child per CPU (at most two)."""
    from concurrent.futures import ThreadPoolExecutor

    chunks = [specs[i::CONNECTIONS] for i in range(CONNECTIONS)]
    with ThreadPoolExecutor(CONNECTIONS) as pool:
        futures = [
            pool.submit(common.run_worker, root, "reference", {"specs": chunk},
                        os.path.join(work, f"reference-{i}.json"))
            for i, chunk in enumerate(chunks)
        ]
        outputs = [future.result() for future in futures]
    bodies: List[str] = [""] * len(specs)
    for i, output in enumerate(outputs):
        bodies[i::CONNECTIONS] = output["bodies"]
    return bodies, outputs[0]["env"]


def _spec_id(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def _evaluate(schedule: Dict[str, Any], references: Dict[str, str]) -> Dict[str, Any]:
    """Checks and client-side measurements of one schedule.

    A request fails on an exception, a non-200 answer (a refused 503
    included) or a body that fails its check; a failed request counts
    as infinitely slow in the latency percentiles.  The final /healthz
    error count is one more check.
    """
    failures: List[str] = []
    hit_ms, miss_ms, late = [], [], []
    ticks = 0.0
    counted = set()
    for req, outcome in zip(schedule["requests"], schedule["outcomes"]):
        late.append(outcome["late_s"])
        problem = None
        if outcome["status"] != 200:
            problem = f"status {outcome['status']} {outcome.get('error', '')}".strip()
        elif req["kind"] == "hit":
            if outcome["body"] != schedule["hot_bodies"][req["hot"]]:
                problem = "cache hit differs from the body served when its key was warmed"
        else:
            payload = json.loads(outcome["body"])
            if canonical_body(payload) != references[_spec_id(req["spec"])]:
                problem = "served body differs from an in-process simulate()"
            if _spec_id(req["spec"]) not in counted:
                counted.add(_spec_id(req["spec"]))
                ticks += sum(run["parallel_time"] * sum(run["final_counts"]) for run in payload["runs"])
        if problem is not None:
            failures.append(f"{req['kind']} request (seed {req['spec']['seed']}): {problem}")
        latency_ms = float("inf") if problem else 1e3 * outcome["latency_s"]
        (hit_ms if req["kind"] == "hit" else miss_ms).append(latency_ms)
    stats = schedule["health"].get("stats", {})
    if stats.get("errors") != 0:
        failures.append(f"/healthz reports errors={stats.get('errors')}")
    jobs = schedule["health"].get("jobs", {})
    wall = max(outcome["done"] for outcome in schedule["outcomes"])
    latencies = hit_ms + miss_ms
    return {
        "attempted": len(latencies) + 1,
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "ticks_per_s": ticks / wall,
        "req_p50_ms": tracing.percentile(latencies, 50),
        "req_p99_ms": tracing.percentile(latencies, 99),
        "hit_p50_ms": tracing.percentile(hit_ms, 50),
        "miss_p50_ms": tracing.percentile(miss_ms, 50),
        "requests": len(latencies),
        "hits": len(hit_ms),
        "misses": len(miss_ms),
        "late_p99_ms": 1e3 * tracing.percentile(late, 99),
        # Refused admissions are marked as job errors without bumping
        # the worker error counter.
        "coalesced": float(stats.get("coalesced", 0)),
        "refused": float(max(0, jobs.get("error", 0) - stats.get("errors", 0))),
    }


def run(root: str, work: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_samples = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            server = Server(root, work, f"setup{i}", trace=False)
            setup_samples.append(server.setup_s)
            server.stop()
    # A traced run splits the schedule into an untraced and a traced
    # half, so that it also measures the tracing overhead.
    length = SCHEDULE_SHARE * seconds
    parts = [(0, False, length)] if not trace else [(0, False, length / 2), (1, True, length / 2)]
    schedules = [_schedule_once(root, work, seed, part_length, part, traced)
                 for part, traced, part_length in parts]
    fresh = {}
    for schedule in schedules:
        for req in schedule["requests"]:
            if req["kind"] != "hit":
                fresh[_spec_id(req["spec"])] = req["spec"]
    keys = list(fresh)
    bodies, env = _references(root, work, [fresh[k] for k in keys])
    references = dict(zip(keys, bodies))
    evaluated = [_evaluate(schedule, references) for schedule in schedules]
    main = evaluated[0]
    setup_samples.append(schedules[0]["setup_s"])
    out = {
        "env": env,
        "attempted": sum(e["attempted"] for e in evaluated),
        "failed": sum(e["failed"] for e in evaluated),
        "failures": [f for e in evaluated for f in e["failures"]],
        "metrics": {
            "setup_s": common.median(setup_samples),
            "wall_s": main["wall_s"],
            "ticks_per_s": main["ticks_per_s"],
            "op_p50_ms": main["hit_p50_ms"],
            "peak_rss_mb": schedules[0]["report"]["peak_rss_mb"],
        },
        "extra": {
            "miss_p50_ms": main["miss_p50_ms"],
            "req_p50_ms": main["req_p50_ms"],
            "req_p99_ms": main["req_p99_ms"],
            "requests": main["requests"],
            "hits": main["hits"],
            "misses": main["misses"],
            "generator_late_p99_ms": main["late_p99_ms"],
            "connections": CONNECTIONS,
            "rate_per_s": workloads.SERVE_RATE,
        },
    }
    if trace:
        traced = evaluated[1]
        layers = dict(schedules[1]["report"]["layers"])
        layers.update({
            "api.serve.coalesced": traced["coalesced"],
            "api.serve.refused": traced["refused"],
            "api.serve.generator_late_p99_ms": traced["late_p99_ms"],
            "api.serve.hit_p50_ms": traced["hit_p50_ms"],
            "api.serve.miss_p50_ms": traced["miss_p50_ms"],
            "trace.overhead_s": traced["wall_s"] - main["wall_s"],
        })
        out["layers"] = layers
    return out
