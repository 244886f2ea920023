"""Counts-level engines for the *asynchronous* models on ``K_n``.

The paper's headline theorems live in the sequential / Poisson-clock
model, yet simulating that model one tick at a time costs O(1) Python
work per tick — ``Theta(n log n)`` ticks per run — which caps agent-level
sweeps around ``n ~ 10^5``.  On the complete graph, however, a tick's
conditional law given the colour histogram ``c`` factors exactly:

1. the acting node carries label ``i`` with probability ``c_i / n``;
2. given ``i``, it ends the tick with label ``j`` with probability
   ``P[i, j](c)`` (the protocol's
   :meth:`~repro.protocols.base.SequentialCountsProtocol.tick_transition_matrix`).

:class:`CountsSequentialEngine` advances that histogram chain in
*batches* of ``B = max(1, round(n * batch_fraction))`` ticks, along one
of two routes chosen by ``B``.

Scalar exact one-tick chain (``B = 1``, i.e. ``n <= 383`` by default)
---------------------------------------------------------------------
Every tick runs in one pure-Python loop over the label histogram: the
actor label is read off the histogram at ``floor(u * n)``, the
protocol's :attr:`~repro.protocols.base.SequentialCountsProtocol.tick_samples`
sample labels at ``floor(u * (n - 1))`` of the histogram with the actor
removed, and the protocol's scalar
:meth:`~repro.protocols.base.SequentialCountsProtocol.tick_rule` names
the actor's new label.  That is the factorisation above, tick by tick,
so the route is law-exact (to the 2^-53 resolution of the uniforms).

Draws are laid out by the stop-check grid and the tick budget only.  A
*segment* of ``b`` ticks ends at the next stop check, at the tick
budget, or after :data:`_SEGMENT_TICKS` ticks, whichever comes first;
it draws ``rng.random(b * (1 + s))`` uniforms (``1 + s`` consecutive
ones per tick) and then, in the Poisson-clock model,
``rng.standard_exponential(b)`` inter-tick gaps (the clock advances by
``gap / n`` per tick, and the time budget is checked before each tick).
The ensemble twins draw ``(A, ...)`` arrays of the same shapes, so a
one-replication ensemble replays the single run value for value; trace
points are recorded inside a segment and do not move the layout.

Frozen-rate tau-leap (``B > 1``)
--------------------------------
The batch's acting-node labels come from one multinomial over
``c / n``, and each label class's outcomes from one multinomial over
its transition row — O(k^2) numpy work per batch instead of O(B)
Python work.  The batch freezes the rates at the batch-start
histogram, while the true chain lets every tick see the updates of the
ticks before it.  Within a batch the histogram moves by at most ``B``
units, so each per-tick probability drifts by ``O(B / n)`` and the
batch law agrees with the tick chain up to a relative error of order
``B / n`` — the engine's default ``batch_fraction = 1/256`` keeps that
error around 0.4%, far below the run-to-run noise of any
convergence-time statistic (the cross-engine KS tests in
``tests/test_counts_async.py`` verify the agreement distributionally).
Two guard rails keep the frozen-rate draw lawful:

* a batch that would overdraw a small label class (``c_i - out_i +
  in_i < 0`` for some ``i``) is discarded and re-drawn as two half
  batches with refreshed rates, recursing down to one tick, which can
  never overdraw;
* stop conditions are still checked on the same ``check_every`` tick
  cadence as :class:`~repro.engine.sequential.SequentialEngine`, so
  recorded convergence times are quantised identically across engines.

Because the number of batches per run is ``~ 256 * parallel_time``
*independent of n*, asynchronous Two-Choices at ``n = 10^8`` converges
in seconds (see ``benchmarks/bench_perf_engines.py``).

:class:`CountsContinuousEngine` is the Poisson-clock twin: the wall
clock advanced by ``B`` ticks is ``Gamma(B) / n`` — the sum of ``B``
i.i.d. ``Exp(n)`` superposition gaps — drawn exactly per batch, so its
``parallel_time`` is continuous like
:class:`~repro.engine.continuous.ContinuousEngine`'s.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..protocols.base import SequentialCountsProtocol
from .base import StopCondition, build_result, consensus_reached

__all__ = ["CountsSequentialEngine", "CountsContinuousEngine"]

#: default batch size as a fraction of n (see the exactness note above).
_DEFAULT_BATCH_FRACTION = 1.0 / 256.0

#: longest segment of the scalar one-tick chain; bounds its draw arrays
#: when ``check_every`` is huge.
_SEGMENT_TICKS = 1024


def _segment_draws(
    rng: np.random.Generator, reps: Optional[int], b: int, samples: int, poisson_clock: bool
) -> Tuple[Any, Any]:
    """Uniforms and (Poisson clock only) unit-exponential gaps of one
    *b*-tick segment: flat lists for a single run (``reps=None``),
    ``(reps, ...)`` arrays for an ensemble."""
    lead = () if reps is None else (reps,)
    draws = rng.random(lead + (b * (1 + samples),))
    gaps = rng.standard_exponential(lead + (b,)) if poisson_clock else None
    if reps is None:
        return draws.tolist(), None if gaps is None else gaps.tolist()
    return draws, gaps


def _tick_chain(
    rule: Callable[[int, Sequence[int], int], int],
    samples: int,
    hist: List[int],
    n: int,
    draws: List[float],
    gaps: Optional[List[float]],
    start: int,
    stop: int,
    time: float,
    max_time: float,
) -> Tuple[int, float]:
    """Run ticks ``start .. stop - 1`` of a segment on *hist*, in place.

    Tick ``t`` reads its ``1 + samples`` uniforms at ``draws[t * (1 +
    samples):]``: the actor label at ``floor(u * n)`` of the histogram,
    then each sample at ``floor(u * (n - 1))`` of the histogram with
    the actor removed; ``floor(u * n) < n`` for every double ``u < 1``,
    and the integer scan skips empty classes.  With *gaps* the clock
    advances by ``gaps[t] / n`` per tick and stops before a tick once
    it reaches *max_time*; without, the caller keeps the clock.
    Returns the index of the first tick not run and the clock.
    """
    m = len(hist)
    width = 1 + samples
    nm1 = n - 1
    for t in range(start, stop):
        if time >= max_time:
            return t, time
        base = t * width
        r = int(draws[base] * n)
        actor = 0
        while r >= hist[actor]:
            r -= hist[actor]
            actor += 1
        hist[actor] -= 1
        sampled = []
        for u in draws[base + 1 : base + width]:
            r = int(u * nm1)
            label = 0
            while r >= hist[label]:
                r -= hist[label]
                label += 1
            sampled.append(label)
        hist[rule(actor, sampled, m)] += 1
        if gaps is not None:
            time += gaps[t] / n
    return stop, time


def _draw_batch(
    protocol: SequentialCountsProtocol,
    counts: np.ndarray,
    b: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance the histogram by *b* ticks (frozen-rate batch draw).

    Exact for ``b == 1``; for larger *b* the rates are frozen at the
    batch start (error ``O(b / n)``, see the module docstring).  A draw
    that would leave a label class negative is re-drawn as two half
    batches with refreshed rates — ``b == 1`` can never overdraw, so
    the recursion terminates.
    """
    transition = np.asarray(protocol.tick_transition_matrix(counts), dtype=float)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # Empty classes never act, but every row must still be a valid
        # probability vector for the batched multinomial call.
        transition[empty] = 0.0
        transition[empty, empty] = 1.0
    actors = rng.multinomial(b, counts / n)
    moved = rng.multinomial(actors, transition)
    new_counts = counts - actors + moved.sum(axis=0)
    if new_counts.min() >= 0:
        return new_counts
    half = b // 2
    new_counts = _draw_batch(protocol, counts, half, n, rng)
    return _draw_batch(protocol, new_counts, b - half, n, rng)


class _CountsTickEngine:
    """Shared run loop of the counts tick engines.

    Subclasses set how wall-clock ``parallel_time`` relates to the tick
    count: deterministic ``ticks / n`` in the sequential model, summed
    ``Exp(n)`` gaps in the Poisson-clock model (``_poisson_clock``).
    """

    _engine_name = "counts-tick"
    _poisson_clock = False

    def __init__(
        self,
        protocol: SequentialCountsProtocol,
        batch_ticks: Optional[int] = None,
        batch_fraction: float = _DEFAULT_BATCH_FRACTION,
    ):
        if batch_ticks is not None and batch_ticks < 1:
            raise ConfigurationError(f"batch_ticks must be positive, got {batch_ticks}")
        if not 0.0 < batch_fraction <= 1.0:
            raise ConfigurationError(f"batch_fraction must be in (0, 1], got {batch_fraction}")
        self.protocol = protocol
        self.batch_ticks = batch_ticks
        self.batch_fraction = batch_fraction

    def _resolve_batch(self, n: int) -> int:
        if self.batch_ticks is not None:
            return self.batch_ticks
        return max(1, int(round(n * self.batch_fraction)))

    def _run(
        self,
        initial: ColorConfiguration,
        max_ticks: Optional[int],
        max_time: Optional[float],
        stop: StopCondition,
        record_trace: bool,
        trace_every_parallel: float,
        check_every: Optional[int],
        seed: SeedLike,
    ) -> RunResult:
        """Run ticks until *stop* holds or a budget runs out.

        The initial state must be a :class:`ColorConfiguration` — the
        engine never materialises per-node colours.  ``rounds`` in the
        result is the tick count.
        """
        if not isinstance(initial, ColorConfiguration):
            raise ConfigurationError(f"{type(self).__name__} requires a ColorConfiguration initial state")
        rng = as_generator(seed)
        n = initial.n
        if n < 2:
            raise ConfigurationError("counts tick engines need at least 2 nodes")
        if max_ticks is None:
            max_ticks = int(50 * n * max(np.log(n), 1.0))
        if max_time is None:
            max_time = float("inf")
        if check_every is None:
            check_every = n
        check_every = max(1, int(check_every))
        batch = self._resolve_batch(n)

        protocol = self.protocol
        rule, samples = protocol.tick_rule, protocol.tick_samples
        counts_state = np.asarray(protocol.init_counts(initial), dtype=np.int64)
        counts = np.asarray(protocol.color_counts(counts_state), dtype=np.int64)
        initial_counts = counts.copy()
        trace = Trace() if record_trace else None
        trace_interval = max(1, int(trace_every_parallel * n))

        time = 0.0
        ticks = 0
        next_check = check_every
        next_trace = trace_interval
        if trace is not None:
            trace.record(0.0, counts)
        converged = stop(counts)
        while not converged and ticks < max_ticks and time < max_time:
            if batch == 1:
                # The scalar exact one-tick chain, split at trace points
                # only (the draw layout never depends on tracing).
                b = min(_SEGMENT_TICKS, max_ticks - ticks, next_check - ticks)
                draws, gaps = _segment_draws(rng, None, b, samples, self._poisson_clock)
                hist = counts_state.tolist()
                start, done = ticks, 0
                while done < b and time < max_time:
                    end = b if trace is None else min(b, next_trace - start)
                    done, time = _tick_chain(
                        rule, samples, hist, n, draws, gaps, done, end, time, max_time
                    )
                    ticks = start + done
                    if gaps is None:
                        time = ticks / n
                    if trace is not None and ticks >= next_trace:
                        trace.record(time, protocol.color_counts(np.asarray(hist, dtype=np.int64)))
                        next_trace += trace_interval
                counts_state = np.asarray(hist, dtype=np.int64)
            else:
                b = min(batch, max_ticks - ticks, next_check - ticks)
                counts_state = _draw_batch(protocol, counts_state, b, n, rng)
                ticks += b
                # The sequential clock derives from the tick count, so
                # recorded times land on the agent engines' float grid.
                time = time + float(rng.gamma(b)) / n if self._poisson_clock else ticks / n
                if trace is not None and ticks >= next_trace:
                    counts = np.asarray(protocol.color_counts(counts_state), dtype=np.int64)
                    trace.record(time, counts)
                    while next_trace <= ticks:
                        next_trace += trace_interval
            if ticks >= next_check:
                next_check += check_every
                counts = np.asarray(protocol.color_counts(counts_state), dtype=np.int64)
                converged = stop(counts)
                if not converged and protocol.is_absorbed(counts_state):
                    break
        counts = np.asarray(protocol.color_counts(counts_state), dtype=np.int64)
        converged = converged or stop(counts)
        if trace is not None:
            trace.record(time, counts)

        return build_result(
            converged=converged,
            initial_counts=initial_counts,
            final_counts=counts,
            rounds=ticks,
            parallel_time=time,
            trace=trace,
            metadata={
                "engine": self._engine_name,
                "protocol": protocol.name,
                "batch_ticks": batch,
            },
        )


class CountsSequentialEngine(_CountsTickEngine):
    """Counts-level driver for the sequential model on ``K_n``.

    Parallel time is ``ticks / n``, exactly as in
    :class:`~repro.engine.sequential.SequentialEngine`, whose ``run``
    signature this mirrors so the dispatcher can swap one for the
    other.
    """

    _engine_name = "counts-sequential"

    def run(
        self,
        initial: ColorConfiguration,
        max_ticks: Optional[int] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every_parallel: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run until *stop* holds or *max_ticks* is exhausted
        (parameters mirror :class:`~repro.engine.sequential.SequentialEngine`)."""
        return self._run(
            initial, max_ticks, None, stop, record_trace, trace_every_parallel, check_every, seed
        )


class CountsContinuousEngine(_CountsTickEngine):
    """Counts-level driver for the Poisson-clock model on ``K_n``.

    By the superposition property, consecutive system ticks are
    ``Exp(n)`` apart: the scalar chain adds one gap per tick, and a
    tau-leap batch of ``B`` ticks adds their exact sum ``Gamma(B) / n``
    in one RNG call.  The tick *sequence* itself has the same law as
    the sequential model's, so this engine shares its machinery and
    differs only in the reported ``parallel_time``.
    """

    _engine_name = "counts-continuous"
    _poisson_clock = True

    def run(
        self,
        initial: ColorConfiguration,
        max_time: Optional[float] = None,
        stop: StopCondition = consensus_reached,
        record_trace: bool = False,
        trace_every: float = 1.0,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> RunResult:
        """Run until *stop* holds or continuous time *max_time* passes
        (parameters mirror :class:`~repro.engine.continuous.ContinuousEngine`,
        so the dispatcher can swap one for the other).  The default
        time budget is ``50 ln n`` like the reference engine's; trace
        points land on tick-grid crossings of *trace_every*.
        """
        if max_time is None:
            n = initial.n if isinstance(initial, ColorConfiguration) else 2
            max_time = 50.0 * max(np.log(n), 1.0)
        return self._run(initial, None, max_time, stop, record_trace, trace_every, check_every, seed)
