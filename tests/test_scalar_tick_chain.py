"""The scalar exact one-tick chain of the counts tick engines (B = 1).

1. *Law pin*: one tick of the scalar chain, driven over an evenly
   spaced grid of uniforms, reproduces ``c_i / n * P[i, j]`` for every
   protocol's ``tick_transition_matrix`` — exactly, because the grid
   points sit at the midpoints of the histogram's unit cells.
2. *Edges of the uniform*: ``u = nextafter(1, 0)`` and ``u = 0`` never
   select an empty class.
3. *Parity*: a one-replication ensemble replays the single run value
   for value when a Poisson clock runs out mid-segment and when the
   tick budget is not a multiple of ``check_every``; tracing does not
   move the draw layout; a huge ``check_every`` keeps draws bounded.
"""

import itertools

import numpy as np
import pytest

from repro.core.colors import ColorConfiguration
from repro.engine import (
    CountsContinuousEngine,
    CountsSequentialEngine,
    EnsembleCountsContinuousEngine,
    EnsembleCountsSequentialEngine,
)
from repro.engine.counts_async import _SEGMENT_TICKS, _tick_chain
from repro.protocols import (
    ThreeMajoritySequentialCounts,
    TwoChoicesSequentialCounts,
    UndecidedStateSequentialCounts,
    VoterSequentialCounts,
)

PROTOCOLS = [
    TwoChoicesSequentialCounts(),
    VoterSequentialCounts(),
    ThreeMajoritySequentialCounts(),
    UndecidedStateSequentialCounts(),
]

#: label histograms with an empty class; for USD the last bucket is the
#: undecided one, both occupied and empty.
HISTOGRAMS = {
    "two-choices/seq-counts": [[5, 3, 0, 2]],
    "voter/seq-counts": [[5, 3, 0, 2]],
    "three-majority/seq-counts": [[4, 0, 3, 2]],
    "undecided-state/seq-counts": [[4, 0, 3, 3], [5, 3, 2, 0]],
}

NEVER = lambda counts: False  # noqa: E731


def _one_tick(protocol, hist, draws):
    """Histogram after one scalar tick on *draws*."""
    after = list(hist)
    _tick_chain(
        protocol.tick_rule, protocol.tick_samples, after, sum(hist), draws, None, 0, 1, 0.0, float("inf")
    )
    return after


def _grid_law(protocol, hist):
    """Joint frequencies of (actor label, new label) over the midpoint
    grid: ``n`` actor points times ``(n - 1) ** s`` sample points."""
    n, m = sum(hist), len(hist)
    actor_grid = [(g + 0.5) / n for g in range(n)]
    sample_grid = [(g + 0.5) / (n - 1) for g in range(n - 1)]
    owners = np.repeat(np.arange(m), hist)
    joint = np.zeros((m, m))
    for u0 in actor_grid:
        actor = int(owners[int(u0 * n)])
        for us in itertools.product(sample_grid, repeat=protocol.tick_samples):
            moved = np.array(_one_tick(protocol, hist, [u0, *us])) - np.array(hist)
            new = int(np.flatnonzero(moved > 0)[0]) if moved.any() else actor
            joint[actor, new] += 1
    return joint / (n * (n - 1) ** protocol.tick_samples)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
def test_scalar_tick_reproduces_transition_matrix(protocol):
    for hist in HISTOGRAMS[protocol.name]:
        counts = np.array(hist)
        law = counts[:, None] / counts.sum() * np.asarray(protocol.tick_transition_matrix(counts))
        law[counts == 0] = 0.0  # empty classes never act
        np.testing.assert_allclose(_grid_law(protocol, hist), law, rtol=0, atol=1e-12)


def test_top_uniform_stays_inside_the_population():
    top = np.nextafter(1.0, 0.0)
    for n in list(range(2, 4097)) + [10**6 + 3, 2**31 - 1, 10**15 + 7]:
        assert int(top * n) < n


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
@pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 0.0))], ids=["zero", "top"])
def test_edge_uniforms_never_select_an_empty_class(protocol, u):
    # Empty classes at both ends and in the middle; for USD the last
    # (undecided) bucket is empty too.
    hist = [0, 3, 0, 2, 0]
    after = _one_tick(protocol, hist, [u] * (1 + protocol.tick_samples))
    # The actor and every sample come from the first (u = 0) or last
    # (top u) occupied class, so the tick leaves the histogram as it was.
    assert after == hist, (protocol.name, after)


CONFIG = ColorConfiguration([70, 40, 20])  # n = 130: one-tick batches


def _same(a, b):
    return (
        a.converged == b.converged
        and a.rounds == b.rounds
        and a.parallel_time == b.parallel_time
        and a.final.counts == b.final.counts
    )


class TestParityAtB1:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
    def test_r1_when_poisson_clock_expires_mid_segment(self, protocol):
        for seed in (1, 2, 3):
            single = CountsContinuousEngine(protocol).run(CONFIG, max_time=3.3, stop=NEVER, seed=seed)
            [ensembled] = EnsembleCountsContinuousEngine(protocol).run_ensemble(
                CONFIG, 1, max_time=3.3, stop=NEVER, seed=seed
            )
            assert single.metadata["batch_ticks"] == 1
            assert single.rounds % CONFIG.n != 0  # the budget cut a segment
            assert single.parallel_time >= 3.3
            assert _same(single, ensembled), (protocol.name, seed)

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
    @pytest.mark.parametrize("model", ["sequential", "continuous"])
    def test_r1_when_tick_budget_is_off_the_check_grid(self, protocol, model):
        # The shared loops take a tick budget in both models (the public
        # Poisson-clock entry points only set it to 50 n ln n).
        if model == "sequential":
            single_engine = CountsSequentialEngine(protocol)
            ensemble_engine = EnsembleCountsSequentialEngine(protocol)
        else:
            single_engine = CountsContinuousEngine(protocol)
            ensemble_engine = EnsembleCountsContinuousEngine(protocol)
        config = ColorConfiguration([50, 45, 35])
        single = single_engine._run(config, 700, 1e9, NEVER, False, 1.0, 300, 4)
        [ensembled] = ensemble_engine._run_ensemble(config, 1, 700, 1e9, NEVER, 300, 4)
        assert single.rounds == 700
        assert _same(single, ensembled)

    @pytest.mark.parametrize("engine_cls, kwargs", [
        (CountsSequentialEngine, {"max_ticks": 2000, "trace_every_parallel": 0.37}),
        (CountsContinuousEngine, {"max_time": 9.0, "trace_every": 0.37}),
    ])
    def test_tracing_keeps_the_values(self, engine_cls, kwargs):
        engine = engine_cls(ThreeMajoritySequentialCounts())
        for seed in (5, 6):
            plain = engine.run(CONFIG, seed=seed, **kwargs)
            traced = engine.run(CONFIG, seed=seed, record_trace=True, **kwargs)
            assert _same(plain, traced)
            interval = int(0.37 * CONFIG.n)
            # Start, one point per crossed interval, end.
            assert len(traced.trace) == 2 + traced.rounds // interval

    def test_huge_check_every_keeps_draws_bounded(self):
        sizes = []

        class Recording(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                sizes.append(int(np.prod(size)))
                return super().random(size, *args, **kwargs)

        protocol = TwoChoicesSequentialCounts()
        budget = 5 * _SEGMENT_TICKS + 17
        result = CountsSequentialEngine(protocol).run(
            CONFIG, max_ticks=budget, check_every=10**15, stop=NEVER,
            seed=Recording(np.random.PCG64(8)),
        )
        assert result.rounds == budget
        assert max(sizes) == _SEGMENT_TICKS * (1 + protocol.tick_samples)
        assert sum(sizes) == budget * (1 + protocol.tick_samples)
        sizes.clear()
        results = EnsembleCountsContinuousEngine(protocol).run_ensemble(
            CONFIG, 3, max_time=40.0, check_every=10**15, stop=NEVER,
            seed=Recording(np.random.PCG64(8)),
        )
        assert all(r.parallel_time >= 40.0 for r in results)
        assert max(sizes) == 3 * _SEGMENT_TICKS * (1 + protocol.tick_samples)
