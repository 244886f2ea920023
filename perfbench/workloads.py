"""Input generation for the four benchmark workloads.

Everything here is plain data derived from the benchmark seed: spec
payloads (``SimulationSpec.to_dict`` form), a campaign payload and the
serve request schedule.  Nothing imports the program, so the program
only ever sees the generated specs.

Sizes are part of each workload's definition and never depend on the
seed; the seed picks the simulation seeds and the serve traffic mix.
Graph seeds are fixed constants as well: random-regular construction
time swings by about a quarter with the graph seed, which would swamp
the bounds, while the simulation seed only moves trajectories.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List

WORKLOADS = ("kn-sweep", "sparse-graph", "serve-mixed", "paper-async")


def derive_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed that depends only on *seed* and *labels*."""
    text = ":".join([str(seed)] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


# -- kn-sweep -----------------------------------------------------------
# (protocol, model, n, k, reps): one point per protocol and model.  The
# grid reaches every counts engine: single-run and ensemble (reps 1 and
# 8), both models, the one-tick batches of n < 512 and the n/256
# tau-leap above it.  A tau-leap run costs about 256 batches per unit of
# parallel time whatever n is, so the large points cost about the same
# at 10^5 as at 4*10^6; k = 8 and ensembles cost 2-3 times more, so the
# grid has few of them.
KN_SWEEP_GRID = (
    ("two-choices", "sequential", 128, 8, 8),
    ("two-choices", "continuous", 4_000_000, 2, 1),
    ("three-majority", "sequential", 1_000_000, 2, 8),
    ("three-majority", "continuous", 200, 8, 8),
    ("undecided-state", "sequential", 300, 2, 1),
    ("undecided-state", "continuous", 100_000, 2, 1),
)


def kn_sweep_campaign(seed: int, pass_index: int) -> Dict[str, Any]:
    """One zip-mode campaign over :data:`KN_SWEEP_GRID` (CampaignSpec payload)."""
    protocols, models, ns, ks, reps = (list(axis) for axis in zip(*KN_SWEEP_GRID))
    return {
        "base": {
            "protocol": "two-choices",
            "n": 128,
            "initial": "theorem-1-1-gap",
            "initial_params": {"k": 2, "z": 2.0},
        },
        "sweep": {
            "axes": {
                "protocol": protocols,
                "model": models,
                "n": ns,
                "initial_params.k": ks,
                "reps": reps,
            },
            "mode": "zip",
        },
        "seed": derive_seed(seed, "kn-sweep", pass_index),
        "name": "perfbench-kn-sweep",
    }


# -- sparse-graph -------------------------------------------------------
# Both random-regular points sit below SPARSE_SEQUENTIAL_CROSSOVER (30k):
# the sequential one routes to SequentialEngine, and the continuous one
# to SparseContinuousEngine, which the continuous model takes off K_n at
# any n.  The torus point at n = 10^5 is above the crossover and routes
# to SparseSequentialEngine.  A random-regular graph above the crossover
# would cost over 2 s of construction per pass (the edge-switch repair
# rescans every pair), which halves the passes a run gets.
SPARSE_POINTS = (
    ("two-choices", "sequential", 10_000),
    ("three-majority", "continuous", 10_000),
)
SPARSE_DEGREE = 8
SPARSE_GRAPH_SEED = 20170725
TORUS_N = 100_000
#: sequential ticks the torus point may use; far below its consensus time.
TORUS_BUDGET_TICKS = 10 * TORUS_N


def sparse_graph_specs(seed: int, pass_index: int) -> List[Dict[str, Any]]:
    specs = []
    for index, (protocol, model, n) in enumerate(SPARSE_POINTS):
        specs.append({
            "protocol": protocol,
            "n": n,
            "model": model,
            "topology": "random-regular",
            "topology_params": {"degree": SPARSE_DEGREE, "graph_seed": SPARSE_GRAPH_SEED + index},
            "initial": "multiplicative-bias",
            "initial_params": {"k": 2, "ratio": 2.0},
            "seed": derive_seed(seed, "sparse-graph", pass_index, index),
        })
    specs.append({
        "protocol": "two-choices",
        "n": TORUS_N,
        "model": "sequential",
        "topology": "torus",
        "initial": "multiplicative-bias",
        "initial_params": {"k": 2, "ratio": 2.0},
        "seed": derive_seed(seed, "sparse-graph", pass_index, "torus"),
        "max_steps": TORUS_BUDGET_TICKS,
    })
    return specs


# -- paper-async --------------------------------------------------------
PAPER_N = 600
PAPER_K = 4
PAPER_RATIO = 2.0


def paper_async_specs(seed: int, pass_index: int) -> List[Dict[str, Any]]:
    return [
        {
            "protocol": "async-plurality",
            "n": PAPER_N,
            "model": model,
            "initial": "multiplicative-bias",
            "initial_params": {"k": PAPER_K, "ratio": PAPER_RATIO},
            "seed": derive_seed(seed, "paper-async", pass_index, model),
        }
        for model in ("sequential", "continuous")
    ]


# -- serve-mixed --------------------------------------------------------
#: request slots per second.  About a quarter of the slots run an engine
#: (~50 ms each on the batch-size-1 counts path), so 10 slots/s keeps a
#: cold run on the server about an eighth of the time; 2 serial workers
#: sustained ~20 cold misses/s on a 2-CPU host.  Hits that arrive while a
#: cold run holds the server's interpreter lock wait for it, so request
#: latency follows the cold duty cycle.  At half capacity (40 slots/s)
#: the median request took 40 to 103 ms over five seeds; at 20 slots/s
#: the median hit tripled (2 to 6 ms) when the host slowed down.
SERVE_RATE = 10.0
SERVE_HOT_KEYS = 16
SERVE_N = 120
#: slots per block of 20, in a seeded order within each block: repeat
#: a warmed key / fresh key / fresh key sent twice back to back (the
#: second copy should coalesce onto the first).  Fixed counts keep the
#: cold work of a schedule the same for every seed.
SERVE_BLOCK = (("hit", 15), ("miss", 4), ("dup", 1))


def _serve_spec(seed_value: int) -> Dict[str, Any]:
    return {"protocol": "two-choices", "n": SERVE_N, "seed": seed_value}


def serve_hot_specs(seed: int) -> List[Dict[str, Any]]:
    return [_serve_spec(derive_seed(seed, "serve-hot", i)) for i in range(SERVE_HOT_KEYS)]


def serve_schedule(seed: int, seconds: float, part: int = 0) -> List[Dict[str, Any]]:
    """Open-loop requests: ``due`` offsets in seconds, in send order.

    *part* numbers the schedules of one run (a traced run has two), so
    that each gets its own fresh keys.
    """
    rng = random.Random(derive_seed(seed, "serve-schedule", part))
    hot = serve_hot_specs(seed)
    block = [kind for kind, count in SERVE_BLOCK for _ in range(count)]
    requests: List[Dict[str, Any]] = []
    fresh = 0
    kinds: List[str] = []
    for slot in range(max(1, int(seconds * SERVE_RATE))):
        if not kinds:
            kinds = rng.sample(block, len(block))
        kind = kinds.pop()
        due = slot / SERVE_RATE
        if kind == "hit":
            index = rng.randrange(len(hot))
            requests.append({"due": due, "kind": "hit", "hot": index, "spec": hot[index]})
            continue
        spec = _serve_spec(derive_seed(seed, "serve-fresh", part, fresh))
        fresh += 1
        requests.append({"due": due, "kind": "miss", "spec": spec})
        if kind == "dup":
            requests.append({"due": due, "kind": "dup", "spec": spec})
    return requests
