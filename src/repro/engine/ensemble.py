"""Ensemble-vectorised counts engines: R replications per numpy batch.

Every paper experiment estimates a *distribution* of convergence times,
so the unit of work is not one run but R independent replications of
one run.  PR 1 made a single counts-level run fast; the replication
loop around it then dominates every sweep, because each of its ~256
batches per unit parallel time is a handful of numpy calls on O(k)
data — pure Python overhead.  The engines here amortise that overhead
across the whole ensemble: the state is an ``(R, m)`` matrix of label
histograms, one batch advances *every still-running replication* with
the same number of numpy calls a single run would spend, and the numpy
calls are stacked multinomials whose rows are drawn independently.  At
one-tick batches (``n <= 383`` by default) the tick engines instead run
the scalar exact one-tick chain of :mod:`repro.engine.counts_async`:
one stacked draw of uniforms (and Poisson gaps) per segment, then the
scalar loop row by row.

Exactness contract
------------------
Each replication's marginal law is *identical* to the corresponding
single-run engine — not merely close:

* row ``r`` of every stacked ``Generator.multinomial`` /
  ``binomial`` / ``gamma`` / ``random`` / ``standard_exponential``
  call is an independent draw from exactly the
  distribution the single-run engine would use for that replication's
  state, and
* with ``R == 1`` the whole call sequence collapses to the single-run
  engine's call sequence (numpy draws stacked arguments row by row, so
  a one-row call is bit-identical to the scalar call), making a
  one-replication ensemble reproduce ``CountsEngine`` /
  ``CountsSequentialEngine`` / ``CountsContinuousEngine`` results
  value-for-value from a shared seed.  ``tests/test_ensemble.py``
  enforces both clauses.

The grid invariants of the single-run tick engines carry over
unchanged: sequential parallel time is exactly ``ticks / n`` (the same
float grid as :class:`~repro.engine.sequential.SequentialEngine`), and
stop conditions are evaluated on the ``check_every = n`` tick grid.

Masking and compaction
----------------------
Replications finish at different times.  A replication is *retired* —
its :class:`~repro.core.results.RunResult` is recorded and its row is
compacted out of the state matrix — as soon as its stop condition
holds at a grid check, it reaches an absorbing non-stop state, or its
tick/time/round budget runs out.  The active set therefore shrinks as
the ensemble drains, and the per-batch cost falls with it; the engine
returns when the last replication retires.  All replications advance
in lockstep on the shared tick grid (they run the same protocol on the
same ``n``), which is what makes one stacked draw per batch possible.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult
from ..core.rng import SeedLike, as_generator, spawn_seed_sequences, split
from ..protocols.base import EnsembleCountsProtocol, SequentialCountsProtocol
from .base import StopCondition, build_result, consensus_reached
from .counts_async import _DEFAULT_BATCH_FRACTION, _SEGMENT_TICKS, _segment_draws, _tick_chain

__all__ = [
    "EnsembleCountsEngine",
    "EnsembleCountsSequentialEngine",
    "EnsembleCountsContinuousEngine",
    "run_replicated",
]


def _stop_flags(stop: StopCondition, counts: np.ndarray) -> np.ndarray:
    """Evaluate a (scalar) stop condition on every row of *counts*."""
    return np.fromiter((bool(stop(row)) for row in counts), dtype=bool, count=len(counts))


def _draw_batch_ensemble(
    protocol: SequentialCountsProtocol,
    states: np.ndarray,
    b: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance every row of *states* by *b* ticks (frozen-rate batches).

    The ensemble twin of :func:`repro.engine.counts_async._draw_batch`:
    actor labels come from one stacked multinomial over the rows'
    ``c / n`` distributions, outcomes from one stacked multinomial over
    the rows' transition matrices.  Rows that would overdraw a small
    label class are re-drawn as two half batches with refreshed rates
    (recursing on the offending subset only, down to the always-valid
    ``b == 1``); with one row the call sequence is exactly the
    single-run helper's.
    """
    transition = np.asarray(protocol.tick_transition_matrices(states), dtype=float)
    empty = states == 0
    if empty.any():
        # Empty classes never act, but every row of every slice must
        # still be a valid probability vector for the stacked draw.
        transition[empty] = 0.0
        rows, labels = np.nonzero(empty)
        transition[rows, labels, labels] = 1.0
    actors = rng.multinomial(b, states / n)
    moved = rng.multinomial(actors, transition)
    new_states = states - actors + moved.sum(axis=1)
    bad = new_states.min(axis=1) < 0
    if not bad.any():
        return new_states
    half = b // 2
    redo = _draw_batch_ensemble(protocol, states[bad], half, n, rng)
    new_states[bad] = _draw_batch_ensemble(protocol, redo, b - half, n, rng)
    return new_states


class EnsembleCountsEngine:
    """Round-based ensemble driver for ``K_n`` counts protocols.

    Advances R independent replications of
    :class:`~repro.engine.counts.CountsEngine`'s chain in lockstep, one
    synchronous round per step for every active replication, through
    the protocol's :meth:`~repro.protocols.base.EnsembleCountsProtocol.step_ensemble`
    hook.
    """

    def __init__(self, protocol: EnsembleCountsProtocol):
        if not isinstance(protocol, EnsembleCountsProtocol):
            raise ConfigurationError(
                f"{getattr(protocol, 'name', protocol)!r} has no ensemble round hooks"
            )
        self.protocol = protocol

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_rounds: int = 1_000_000,
        stop: StopCondition = consensus_reached,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications to completion; results in rep order."""
        if not isinstance(initial, ColorConfiguration):
            raise ConfigurationError("EnsembleCountsEngine requires a ColorConfiguration initial state")
        if n_reps < 1:
            raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be non-negative, got {max_rounds}")
        rng = as_generator(seed)
        protocol = self.protocol
        states = np.asarray(protocol.init_ensemble(initial, n_reps), dtype=np.int64)
        counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
        initial_counts = counts[0].copy()
        results: List[Optional[RunResult]] = [None] * n_reps
        rep_ids = np.arange(n_reps)

        def retire(local_indices: np.ndarray, counts_now: np.ndarray, flags, rounds: int) -> None:
            for local, flag in zip(local_indices, flags):
                rep = int(rep_ids[local])
                results[rep] = build_result(
                    converged=bool(flag),
                    initial_counts=initial_counts,
                    final_counts=counts_now[local],
                    rounds=rounds,
                    parallel_time=float(rounds),
                    metadata={
                        "engine": "ensemble-counts",
                        "protocol": protocol.name,
                        "n_reps": n_reps,
                        "replication": rep,
                    },
                )

        stops = _stop_flags(stop, counts)
        if stops.any():
            done = np.flatnonzero(stops)
            retire(done, counts, stops[done], 0)
            keep = ~stops
            states, rep_ids = states[keep], rep_ids[keep]
        rounds = 0
        while rep_ids.size and rounds < max_rounds:
            states = np.asarray(protocol.step_ensemble(states, rng), dtype=np.int64)
            rounds += 1
            counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
            stops = _stop_flags(stop, counts)
            absorbed = np.asarray(protocol.is_absorbed_ensemble(states), dtype=bool) & ~stops
            done = stops | absorbed
            if done.any():
                finished = np.flatnonzero(done)
                retire(finished, counts, stops[finished], rounds)
                keep = ~done
                states, rep_ids = states[keep], rep_ids[keep]
        if rep_ids.size:
            counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
            remaining = np.arange(rep_ids.size)
            retire(remaining, counts, np.zeros(rep_ids.size, dtype=bool), rounds)
        return results  # type: ignore[return-value]


class _EnsembleTickEngine:
    """Shared run loop of the ensemble tick engines.

    The tick machinery of
    :class:`~repro.engine.counts_async._CountsTickEngine` lifted to an
    ``(A, m)`` active-state matrix; subclasses set how the per-rep wall
    clocks relate to the shared tick counter (``_poisson_clock``).
    """

    _engine_name = "ensemble-counts-tick"
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

    def _run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_ticks: Optional[int],
        max_time: Optional[float],
        stop: StopCondition,
        check_every: Optional[int],
        seed: SeedLike,
    ) -> List[RunResult]:
        if not isinstance(initial, ColorConfiguration):
            raise ConfigurationError(f"{type(self).__name__} requires a ColorConfiguration initial state")
        if n_reps < 1:
            raise ConfigurationError(f"n_reps must be positive, got {n_reps}")
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
        states = np.asarray(protocol.init_ensemble(initial, n_reps), dtype=np.int64)
        counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
        initial_counts = counts[0].copy()
        results: List[Optional[RunResult]] = [None] * n_reps
        rep_ids = np.arange(n_reps)
        times = np.zeros(n_reps)
        # Per-rep tick counts: a Poisson clock may run out mid-segment.
        rounds = np.zeros(n_reps, dtype=np.int64)
        ticks = 0
        next_check = check_every

        def retire(local_indices: np.ndarray, counts_now: np.ndarray, flags) -> None:
            for local, flag in zip(local_indices, flags):
                rep = int(rep_ids[local])
                results[rep] = build_result(
                    converged=bool(flag),
                    initial_counts=initial_counts,
                    final_counts=counts_now[local],
                    rounds=int(rounds[local]),
                    parallel_time=float(times[local]),
                    metadata={
                        "engine": self._engine_name,
                        "protocol": protocol.name,
                        "batch_ticks": batch,
                        "n_reps": n_reps,
                        "replication": rep,
                    },
                )

        def compact(keep: np.ndarray) -> None:
            nonlocal states, rep_ids, times, rounds
            states = states[keep]
            rep_ids, times, rounds = rep_ids[keep], times[keep], rounds[keep]

        stops = _stop_flags(stop, counts)
        if stops.any():
            done = np.flatnonzero(stops)
            retire(done, counts, stops[done])
            compact(~stops)
        while rep_ids.size and ticks < max_ticks:
            if np.isfinite(max_time):
                # Mirror the single-run loop condition: a replication
                # whose clock passed the budget stops *before* the next
                # segment, with one final stop evaluation on its counts.
                expired = times >= max_time
                if expired.any():
                    counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
                    done = np.flatnonzero(expired)
                    retire(done, counts, _stop_flags(stop, counts[done]))
                    compact(~expired)
                    if not rep_ids.size:
                        break
            if batch == 1:
                b = min(_SEGMENT_TICKS, max_ticks - ticks, next_check - ticks)
                draws, gaps = _segment_draws(rng, rep_ids.size, b, samples, self._poisson_clock)
                hists = states.tolist()
                for row, hist in enumerate(hists):
                    done_ticks, times[row] = _tick_chain(
                        rule,
                        samples,
                        hist,
                        n,
                        draws[row].tolist(),
                        None if gaps is None else gaps[row].tolist(),
                        0,
                        b,
                        float(times[row]),
                        max_time,
                    )
                    rounds[row] = ticks + done_ticks
                states = np.asarray(hists, dtype=np.int64)
                ticks += b
                if not self._poisson_clock:
                    times = np.full(times.shape, ticks / n)
            else:
                b = min(batch, max_ticks - ticks, next_check - ticks)
                states = _draw_batch_ensemble(protocol, states, b, n, rng)
                ticks += b
                rounds[:] = ticks
                if self._poisson_clock:
                    times = times + rng.gamma(np.full(times.shape, float(b))) / n
                else:
                    times = np.full(times.shape, ticks / n)
            if ticks >= next_check:
                next_check += check_every
                counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
                stops = _stop_flags(stop, counts)
                absorbed = np.asarray(protocol.is_absorbed_ensemble(states), dtype=bool) & ~stops
                done = stops | absorbed
                if done.any():
                    finished = np.flatnonzero(done)
                    retire(finished, counts, stops[finished])
                    compact(~done)
        if rep_ids.size:
            # Budget ran out between grid checks: one final stop
            # evaluation, exactly like the single-run engines' epilogue.
            counts = np.asarray(protocol.color_counts_ensemble(states), dtype=np.int64)
            remaining = np.arange(rep_ids.size)
            retire(remaining, counts, _stop_flags(stop, counts))
        return results  # type: ignore[return-value]


class EnsembleCountsSequentialEngine(_EnsembleTickEngine):
    """Ensemble twin of :class:`~repro.engine.counts_async.CountsSequentialEngine`.

    All replications share the deterministic sequential clock, so every
    reported ``parallel_time`` lies exactly on the ``ticks / n`` float
    grid of the agent engine.
    """

    _engine_name = "ensemble-counts-sequential"

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_ticks: Optional[int] = None,
        stop: StopCondition = consensus_reached,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications until each stops or exhausts
        *max_ticks* (parameters mirror
        :meth:`CountsSequentialEngine.run <repro.engine.counts_async.CountsSequentialEngine.run>`,
        minus tracing)."""
        return self._run_ensemble(initial, n_reps, max_ticks, None, stop, check_every, seed)


class EnsembleCountsContinuousEngine(_EnsembleTickEngine):
    """Ensemble twin of :class:`~repro.engine.counts_async.CountsContinuousEngine`.

    Each replication carries its own Poisson wall clock: its own row of
    per-tick gaps in the scalar chain, or one stacked ``Gamma(B) / n``
    draw per tau-leap batch.
    """

    _engine_name = "ensemble-counts-continuous"
    _poisson_clock = True

    def run_ensemble(
        self,
        initial: ColorConfiguration,
        n_reps: int,
        max_time: Optional[float] = None,
        stop: StopCondition = consensus_reached,
        check_every: Optional[int] = None,
        seed: SeedLike = None,
    ) -> List[RunResult]:
        """Run *n_reps* replications until each stops or its clock
        passes *max_time* (default ``50 ln n``, like the single-run
        engine)."""
        if max_time is None:
            n = initial.n if isinstance(initial, ColorConfiguration) else 2
            max_time = 50.0 * max(np.log(n), 1.0)
        return self._run_ensemble(initial, n_reps, None, max_time, stop, check_every, seed)


def run_replicated(
    engine,
    initial: ColorConfiguration,
    n_reps: int,
    seed: SeedLike = None,
    **run_kwargs,
) -> List[RunResult]:
    """Collect *n_reps* independent :class:`RunResult`\\ s from *engine*.

    The transparent replication front door: ensemble engines run all
    replications in one vectorised pass on the stream
    ``split(seed, "ensemble")``; plain engines fall back to the looped
    path, trial *i* on child *i* of ``SeedSequence(master).spawn``.
    Both paths draw every replication from the same law (the ensemble
    exactness contract above), so callers may treat the routing as a
    pure wall-clock optimisation.  The two paths consume different —
    mutually independent — streams, so only the *distribution* of
    results is shared, not the values; see DESIGN.md for the seeding
    contract.

    Engines that expose their own ``run_replicated`` (the sparse hazard
    engines, which reuse scratch and presample buffers across
    replications) take precedence over the generic loop; they follow
    the same spawn-child seeding, so the values are identical to the
    generic loop too.
    """
    if hasattr(engine, "run_ensemble"):
        return engine.run_ensemble(initial, n_reps=n_reps, seed=split(seed, "ensemble"), **run_kwargs)
    if hasattr(engine, "run_replicated"):
        return engine.run_replicated(initial, n_reps, seed=seed, **run_kwargs)
    return [
        engine.run(initial, seed=child, **run_kwargs)
        for child in spawn_seed_sequences(seed, n_reps)
    ]
