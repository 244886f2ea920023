"""Helpers shared by the batch and serve sides of the benchmark."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: scratch space inside the checkout (ignored by git).
WORK_ROOT = ".perfbench_work"
#: seconds a worker process may take before the benchmark gives up on it.
WORKER_TIMEOUT = 150


def child_env(root: str) -> Dict[str, str]:
    """Environment of every child: the checkout's ``src`` on the path.

    ``REPRO_KERNEL`` is passed through untouched.  Only the cache of a
    compiled kernel is pointed into the checkout, so that a kernel the
    caller selected is built there and not in the home directory.
    """
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_KERNEL_CACHE"] = os.path.join(root, WORK_ROOT, "kernels")
    return env


def run_worker(root: str, mode: str, job: Dict[str, Any], job_path: str) -> Dict[str, Any]:
    """Run ``worker.py MODE`` on *job* in a fresh interpreter; its JSON output.

    The output gains ``spawned``, the monotonic time just before the
    child started, so the child's own timestamps give its set-up time.
    """
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, mode, job_path],
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawned"] = spawned
    return out


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
