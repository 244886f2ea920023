"""The asynchronous plurality-consensus protocol (Theorem 1.3).

This is the paper's main contribution: an adaptation of OneExtraBit to
the asynchronous (sequential / Poisson-clock) model that converges in
the optimal ``Theta(log n)`` parallel time for
``k = O(exp(log n / log log n))`` opinions and multiplicative bias
``c1 >= (1 + eps) ci``.

Structure (Section 3.1):

* **Part one** — ``Theta(log log n)`` phases, each made of a
  Two-Choices sub-phase (sample step + commit step separated by
  do-nothing blocks), a Bit-Propagation sub-phase, and a Sync-Gadget
  sub-phase (see :mod:`repro.protocols.sync_gadget`).  Nodes act
  according to their *working time*; the Sync Gadget perpetually pulls
  working times together so that all but ``o(n)`` nodes stay within
  ``Delta`` of one another.  Part one drives the plurality colour to
  ``c1 >= (1 - eps) n``.
* **Part two (endgame)** — plain asynchronous Two-Choices for
  ``Theta(log n)`` further ticks, after which a node freezes its
  colour.  Theorem-wise, all nodes hold ``C1`` before the first node
  terminates, w.h.p. (Section 3.2) — the run records both event times
  so experiment T9 can check exactly that.

The instantaneous tick rules are written once, in :func:`tick_block`
(a plain-Python loop over list state and a presampled target block).
Two realisations drive it:

:class:`AsyncPluralityConsensus`
    A self-contained runner for the sequential model on ``K_n`` with
    the experiments' extras (clock skew, spread and trace snapshots,
    first-termination bookkeeping).  This is what the benchmarks drive;
    ``n = 10^4`` runs take seconds.
:class:`AsyncPluralityProtocol`
    The generic :class:`~repro.protocols.base.SequentialProtocol`
    interface, so the protocol runs on the sequential and continuous
    engines on any topology; its ``seq_tick_batch`` applies each engine
    block through :func:`tick_block`, and its per-tick
    ``tick_targets``/``tick_apply`` serve the continuous engine *with
    response delays* (experiment T12) and the reference loop.
    A distribution-level agreement test between the two realisations
    is ``tests/test_async_protocol_adapter.py::TestCrossValidation``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..api.registry import ParamSpec, register_protocol
from ..core.colors import ColorConfiguration
from ..core.exceptions import ConfigurationError
from ..core.results import RunResult, Trace
from ..core.rng import SeedLike, as_generator
from ..core.state import NO_COLOR, AsyncNodeState
from ..engine.base import build_result, materialize_initial
from ..graphs.complete import CompleteGraph
from ..graphs.topology import Topology
from .base import SequentialProtocol
from .schedule import (
    ACTION_BP,
    ACTION_NOP,
    ACTION_SYNC_JUMP,
    ACTION_SYNC_SAMPLE,
    ACTION_TC_COMMIT,
    ACTION_TC_SAMPLE,
    PhaseSchedule,
)
from .sync_gadget import SyncSampleBuffer, jump_target

__all__ = [
    "ClockSkew",
    "AsyncPluralityConsensus",
    "AsyncPluralityProtocol",
    "schedule_budget",
    "tick_block",
]


_NO_TARGETS = np.empty(0, dtype=np.int64)

@dataclass(frozen=True)
class ClockSkew:
    """Heterogeneous Poisson clock rates (robustness extension).

    The paper's weak-synchronicity notion explicitly tolerates ``o(n)``
    poorly synchronised nodes; this knob creates them deliberately: a
    ``fraction`` of nodes tick at ``rate`` (relative to the unit rate
    of the rest), so e.g. ``ClockSkew(0.05, 0.5)`` makes 5% of the
    population run at half speed.  Ablation experiment A1 sweeps this.

    Asymmetry worth knowing: *slow* clocks are absorbed — the Sync
    Gadget and the tick-budgeted endgame simply make everyone wait —
    but a *fast* minority beyond ~1.5x can race through the endgame and
    freeze its colour before global consensus, because termination is
    counted in own ticks (the paper's model has unit rates, so this
    regime is outside its guarantees; see
    ``tests/test_clock_skew.py::test_very_fast_minority_can_terminate_prematurely``).
    """

    fraction: float = 0.0
    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1), got {self.fraction}")
        if self.rate <= 0.0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")

    @property
    def is_uniform(self) -> bool:
        return self.fraction == 0.0 or self.rate == 1.0

    def total_rate(self, n: int) -> float:
        """Aggregate tick rate of the population (unit-rate nodes = 1)."""
        slow = int(round(self.fraction * n))
        return slow * self.rate + (n - slow)


@dataclass(frozen=True)
class _ScheduleParams:
    """Constructor-time schedule knobs, resolved per ``n`` at run time."""

    delta_factor: float = 1.0
    phases: Optional[int] = None
    phase_factor: float = 3.0
    phase_offset: int = 2
    bp_blocks: int = 2
    min_sync_blocks: int = 2
    sync_samples: Optional[int] = None
    endgame_factor: float = 14.0
    sync_enabled: bool = True

    def compile(self, n: int) -> PhaseSchedule:
        return PhaseSchedule.compile(n, **dataclasses.asdict(self))


def schedule_budget(schedule: PhaseSchedule) -> float:
    """Default parallel-time budget of a run on *schedule*.

    Every node needs ``total_length`` own ticks; all clocks reach ``T``
    ticks within ``T + O(log n)`` parallel time w.h.p., so half the
    schedule again plus ``20 ln n`` covers every node with slack.
    """
    return 1.5 * schedule.total_length + 20.0 * max(math.log(schedule.n), 1.0)


def tick_block(
    schedule: PhaseSchedule, actors: Sequence[int], first: Sequence[int], second: Sequence[int],
    colors: List[int], counts: List[int], wt: List[int], rt: List[int], bit: List[bool],
    inter: List[int], terminated: List[bool], buffers: Sequence[SyncSampleBuffer], buffer_ids: Sequence[int],
) -> List[int]:
    """Apply one instantaneous tick per entry of *actors*, in order.

    The protocol's one instantaneous tick body.  Tick ``i`` is node
    ``actors[i]`` with presampled targets ``first[i]``, ``second[i]``;
    it reads the first, both or neither as its action needs, so it is
    bit-identical to the per-tick loop that draws only those, on the
    same draws.  The per-node lists are indexed by the ids in
    *actors*/*first*/*second* and updated in place (only actors' rows
    are written); node ``u``'s Sync buffer is ``buffers[buffer_ids[u]]``
    and *counts* tracks colour moves.  Returns the block positions of
    the ticks that terminated their node, in order.
    """
    actions = schedule.action_codes
    part_one = schedule.part_one_length
    total = schedule.total_length
    phase_len = schedule.phase_length
    sync_starts = schedule.sync_starts
    finished: List[int] = []
    for i, u in enumerate(actors):
        if terminated[u]:
            continue
        w = wt[u]
        if w < part_one:
            a = actions[w]
            if a == ACTION_NOP:  # the commonest slot, so tested first
                pass
            elif a == ACTION_BP:
                if not bit[u]:
                    v = first[i]
                    if bit[v]:
                        c = colors[v]
                        old = colors[u]
                        if c != old:
                            counts[old] -= 1
                            counts[c] += 1
                            colors[u] = c
                        bit[u] = True
            elif a == ACTION_SYNC_SAMPLE:
                buffers[buffer_ids[u]].collect(w // phase_len, rt[first[i]], rt[u])
            elif a == ACTION_TC_SAMPLE:
                c = colors[first[i]]
                inter[u] = c if c == colors[second[i]] else NO_COLOR
            elif a == ACTION_TC_COMMIT:
                c = inter[u]
                if c != NO_COLOR:
                    old = colors[u]
                    if c != old:
                        counts[old] -= 1
                        counts[c] += 1
                        colors[u] = c
                    bit[u] = True
                else:
                    bit[u] = False
                inter[u] = NO_COLOR
            else:  # ACTION_SYNC_JUMP
                phase = w // phase_len
                buffer = buffers[buffer_ids[u]]
                target = jump_target(buffer, phase, rt[u], sync_starts[phase])
                buffer.clear()
                if target is not None:
                    wt[u] = target
                    rt[u] += 1
                    continue
            wt[u] = w + 1
            rt[u] += 1
        else:
            # Endgame: plain asynchronous Two-Choices, then freeze.
            c = colors[first[i]]
            if c == colors[second[i]]:
                old = colors[u]
                if c != old:
                    counts[old] -= 1
                    counts[c] += 1
                    colors[u] = c
            w += 1
            wt[u] = w
            rt[u] += 1
            if w >= total:
                terminated[u] = True
                finished.append(i)
    return finished


class AsyncPluralityConsensus:
    """Sequential-model runner for the phased protocol on ``K_n``.

    The keyword arguments parameterise the
    :class:`~repro.protocols.schedule.PhaseSchedule` exactly as for the
    registered ``async-plurality`` protocol (``delta_factor``,
    ``phases``, ``phase_factor``, ``phase_offset``, ``bp_blocks``,
    ``min_sync_blocks``, ``sync_samples``, ``endgame_factor``,
    ``sync_enabled``; see DESIGN.md §4); ``sync_enabled=False``
    disables the Sync Gadget for the T7 ablation.
    """

    def __init__(self, **schedule_kwargs):
        self.params = _ScheduleParams(**schedule_kwargs)

    def schedule_for(self, n: int) -> PhaseSchedule:
        """The compiled working-time schedule used for *n* nodes."""
        return self.params.compile(n)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Union[ColorConfiguration, np.ndarray],
        seed: SeedLike = None,
        max_parallel_time: Optional[float] = None,
        stop_at_consensus: bool = True,
        record_spread: bool = True,
        spread_every_parallel: float = 1.0,
        record_trace: bool = False,
        trace_every_parallel: float = 1.0,
        skew: Optional[ClockSkew] = None,
    ) -> RunResult:
        """Execute the full protocol (part one + endgame).

        Parameters
        ----------
        initial:
            Counts vector or per-node colour array.
        max_parallel_time:
            Hard time budget; the default covers the whole schedule for
            every node with generous slack.
        stop_at_consensus:
            Return as soon as consensus is observed (checked once per
            parallel time unit).  Set ``False`` to run until every node
            terminates — required when measuring the Section 3.2 claim
            that consensus precedes the first termination.
        record_spread:
            Record working-time spread and the fraction of poorly
            synchronised nodes (``|wt - median| > Delta``) once per
            ``spread_every_parallel`` time units into
            ``metadata["spread_trace"]``.
        skew:
            Optional :class:`ClockSkew` making a fraction of nodes tick
            at a non-unit rate (robustness extension; ablation A1).
            Parallel time is then measured against the aggregate rate.
        """
        rng = as_generator(seed)
        colors_arr, k = materialize_initial(initial, rng)
        n = colors_arr.size
        if n < 2:
            raise ConfigurationError("the protocol needs at least 2 nodes")
        schedule = self.schedule_for(n)
        delta = schedule.delta

        skew = skew if skew is not None else ClockSkew()
        # With heterogeneous clocks, global ticks arrive at the aggregate
        # rate; `tick_rate` converts tick counts to parallel time.
        tick_rate = skew.total_rate(n)
        slow_count = int(round(skew.fraction * n))
        if max_parallel_time is None:
            # Slow nodes need proportionally longer.
            slack = 1.0 / min(skew.rate, 1.0) if slow_count else 1.0
            max_parallel_time = schedule_budget(schedule) * slack
        max_ticks = int(max_parallel_time * tick_rate)

        # Hot-loop state lives in plain Python lists: scalar list access
        # is several times faster than numpy scalar indexing.
        colors: List[int] = colors_arr.tolist()
        counts: List[int] = np.bincount(colors_arr, minlength=k).tolist()
        initial_counts = list(counts)
        wt: List[int] = [0] * n
        rt: List[int] = [0] * n
        bit: List[bool] = [False] * n
        inter: List[int] = [NO_COLOR] * n
        terminated: List[bool] = [False] * n
        buffers = [SyncSampleBuffer() for _ in range(n)]
        node_ids = range(n)

        trace = Trace() if record_trace else None
        if trace is not None:
            trace.record(0.0, counts)
        trace_stride = max(1, int(trace_every_parallel * tick_rate))
        next_trace_tick = trace_stride
        spread_trace: List[Dict] = []
        spread_stride = max(1, int(spread_every_parallel * tick_rate))
        next_spread_tick = spread_stride

        alive = n
        first_consensus_tick: Optional[int] = None
        first_termination_tick: Optional[int] = None
        # Check consensus 4x per parallel time unit: the O(k) count scan
        # is cheap and a coarser cadence would systematically date the
        # "first consensus" event later than the (exactly known) first
        # termination when comparing the two (Section 3.2).
        check_stride = max(1, int(tick_rate) // 4)
        batch = 8192
        graph = CompleteGraph(n)

        if slow_count and not skew.is_uniform:
            # Two-tier selection: a tick belongs to the slow group with
            # probability (slow mass) / (total mass), then uniform within
            # the group — equal in law to per-node Poisson racing.
            slow_ids = rng.choice(n, size=slow_count, replace=False)
            fast_ids = np.setdiff1d(np.arange(n), slow_ids)
            p_slow = slow_count * skew.rate / tick_rate
        else:
            slow_ids = fast_ids = None
            p_slow = 0.0

        ticks = 0
        stop = False
        while not stop and alive > 0 and ticks < max_ticks:
            if slow_ids is None:
                picks = rng.integers(0, n, size=batch)
            else:
                in_slow = rng.random(batch) < p_slow
                slow_picks = slow_ids[rng.integers(0, slow_ids.size, size=batch)]
                fast_picks = fast_ids[rng.integers(0, fast_ids.size, size=batch)]
                picks = np.where(in_slow, slow_picks, fast_picks)
            targets = graph.sample_neighbors_block(picks, 2, rng)
            actors = picks.tolist()
            first = targets[:, 0].tolist()
            second = targets[:, 1].tolist()
            lo = 0
            while lo < batch:
                # Sub-blocks end on check boundaries and at the budget.
                hi = min(batch, lo + check_stride - ticks % check_stride, lo + max_ticks - ticks)
                finished = tick_block(
                    schedule, actors[lo:hi], first[lo:hi], second[lo:hi],
                    colors, counts, wt, rt, bit, inter, terminated, buffers, node_ids,
                )
                if finished:
                    if first_termination_tick is None:
                        first_termination_tick = ticks + finished[0] + 1
                    alive -= len(finished)
                    if alive == 0:
                        ticks += finished[-1] + 1
                        stop = True
                        break
                ticks += hi - lo
                lo = hi
                if ticks % check_stride == 0:
                    if first_consensus_tick is None and max(counts) == n:
                        first_consensus_tick = ticks
                        if stop_at_consensus:
                            stop = True
                            break
                    if record_spread and ticks >= next_spread_tick:
                        next_spread_tick += spread_stride
                        spread_trace.append(
                            _spread_snapshot(ticks / tick_rate, wt, terminated, delta, alive)
                        )
                    if trace is not None and ticks >= next_trace_tick:
                        next_trace_tick += trace_stride
                        trace.record(ticks / tick_rate, counts)
                if ticks >= max_ticks:
                    stop = True
                    break

        final_counts = np.asarray(counts, dtype=np.int64)
        consensus = int(final_counts.max()) == n
        converged = consensus or (first_consensus_tick is not None)
        if trace is not None:
            trace.record(ticks / tick_rate, counts)
        metadata = {
            "engine": "async-plurality/fast",
            "protocol": "async-plurality",
            "schedule": schedule.describe(),
            "delta": schedule.delta,
            "phases": schedule.phases,
            "part_one_length": schedule.part_one_length,
            "endgame_ticks": schedule.endgame_ticks,
            "sync_enabled": schedule.sync_enabled,
            "first_consensus_parallel_time": (
                None if first_consensus_tick is None else first_consensus_tick / tick_rate
            ),
            "first_termination_parallel_time": (
                None if first_termination_tick is None else first_termination_tick / tick_rate
            ),
            "consensus_before_first_termination": (
                None
                if first_consensus_tick is None
                else (first_termination_tick is None or first_consensus_tick <= first_termination_tick)
            ),
            "terminated_nodes": n - alive,
            "spread_trace": spread_trace,
        }
        return build_result(
            converged=converged,
            initial_counts=np.asarray(initial_counts, dtype=np.int64),
            final_counts=final_counts,
            rounds=ticks,
            parallel_time=ticks / tick_rate,
            trace=trace,
            metadata=metadata,
        )


def _spread_snapshot(parallel_time: float, wt: List[int], terminated: List[bool], delta: int, alive: int) -> Dict:
    """Working-time dispersion among active nodes at one instant.

    ``poor_fraction`` uses the paper's threshold ``Delta``;
    ``poor_fraction_2x`` / ``poor_fraction_4x`` loosen it, which matters
    at laptop-scale ``n`` where the Poisson noise within a single phase
    already exceeds the asymptotic ``Delta`` (see EXPERIMENTS.md, T7).
    """
    if alive == 0:
        return {
            "time": parallel_time,
            "spread": 0,
            "spread_core": 0,
            "poor_fraction": 0.0,
            "poor_fraction_2x": 0.0,
            "poor_fraction_4x": 0.0,
        }
    active = np.array([w for w, t in zip(wt, terminated) if not t], dtype=np.int64)
    median = np.median(active)
    deviation = np.abs(active - median)
    lo, hi = np.quantile(active, [0.005, 0.995])
    return {
        "time": parallel_time,
        "spread": int(active.max() - active.min()),
        "spread_core": int(round(hi - lo)),
        "poor_fraction": float(np.mean(deviation > delta)),
        "poor_fraction_2x": float(np.mean(deviation > 2 * delta)),
        "poor_fraction_4x": float(np.mean(deviation > 4 * delta)),
    }


class AsyncPluralityProtocol(SequentialProtocol):
    """Tick-interface realisation of the phased protocol.

    Semantically identical to :class:`AsyncPluralityConsensus` but
    expressed through :class:`~repro.protocols.base.SequentialProtocol`
    so the generic engines can drive it — in particular the
    continuous-time engine with response delays (experiment T12).
    Instantaneous engine blocks run through :func:`tick_block`.

    Under delayed responses, a node whose request is in flight skips
    protocol actions while its clock ticks (see
    :mod:`repro.engine.continuous`); target attributes (bit, real time)
    are read at response-completion time.
    """

    name = "async-plurality/seq"

    def __init__(self, **schedule_kwargs):
        self.params = _ScheduleParams(**schedule_kwargs)

    # -- state -----------------------------------------------------------
    def make_state(self, colors: np.ndarray, k: int) -> AsyncNodeState:
        colors = np.asarray(colors, dtype=np.int64)
        return AsyncNodeState(colors=colors, k=k, schedule=self.params.compile(colors.size))

    def default_parallel_time(self, n: int) -> float:
        return schedule_budget(self.params.compile(n))

    # -- instantaneous blocks ----------------------------------------------
    def seq_tick_batch(self, state: AsyncNodeState, nodes: np.ndarray, topology: Topology, rng: np.random.Generator) -> None:
        """One instantaneous tick per entry of *nodes* through :func:`tick_block`.

        Draws the block's ``(B, 2)`` target matrix in one topology call;
        each tick reads the columns its action needs.  Bit-identical to
        :meth:`seq_tick_batch_loop` on the same draws, and equal in law
        to it on independent ones.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size:
            self.apply_block(state, nodes, topology.sample_neighbors_block(nodes, 2, rng))

    def apply_block(self, state: AsyncNodeState, nodes: np.ndarray, targets: np.ndarray) -> None:
        """Apply ticks ``nodes[i]`` with targets ``targets[i]`` in order.

        Only the rows the block touches (actors and targets) are
        gathered into compact lists, actors first, and only the actors'
        rows are scattered back, so a block costs ``O(B)``, not ``O(n)``.
        """
        b = nodes.size
        flat = np.concatenate((nodes, targets.ravel()))
        pos = np.arange(flat.size)
        # Each distinct id keeps one owning position; writing the actors
        # last makes every actor own a position in the first B slots,
        # so actors get the lowest compact ids.
        owner = np.empty(state.n, dtype=np.int64)
        owner[flat[b:]] = pos[b:]
        owner[nodes] = pos[:b]
        owned = owner[flat]
        kept = owned == pos
        local = (np.cumsum(kept) - 1)[owned]
        rows = flat[kept]
        heads = rows[: int(np.count_nonzero(kept[:b]))]
        # Targets are read for colour, bit and real time only.
        read = (state.colors, state.bit, state.real_time)
        own = (state.working_time, state.intermediate)
        colors, bit, rt = read_lists = [arr[rows].tolist() for arr in read]
        wt, inter = own_lists = [arr[heads].tolist() for arr in own]
        finished = tick_block(
            state.schedule, local[:b].tolist(), local[b::2].tolist(), local[b + 1::2].tolist(),
            colors, [0] * state.k, wt, rt, bit, inter, state.terminated[heads].tolist(),
            state.buffers, heads.tolist(),
        )
        for arr, values in zip(read, read_lists):
            arr[heads] = values[: heads.size]
        for arr, values in zip(own, own_lists):
            arr[heads] = values
        state.terminated[nodes[finished]] = True

    # -- tick interface (delayed responses and the reference loop) ---------
    def tick_targets(self, state: AsyncNodeState, node: int, topology: Topology, rng: np.random.Generator) -> np.ndarray:
        schedule: PhaseSchedule = state.schedule
        if state.terminated[node]:
            return _NO_TARGETS
        w = int(state.working_time[node])
        action = schedule.action_at(w)
        if w >= schedule.part_one_length or action == ACTION_TC_SAMPLE:
            targets = topology.sample_neighbors(node, 2, rng)
        elif action == ACTION_SYNC_SAMPLE or (action == ACTION_BP and not state.bit[node]):
            targets = topology.sample_neighbors(node, 1, rng)
        else:
            targets = _NO_TARGETS
        state.pending_targets[node] = targets
        return targets

    def tick_apply(self, state: AsyncNodeState, node: int, observed_colors: np.ndarray) -> None:
        schedule: PhaseSchedule = state.schedule
        if state.terminated[node]:
            return
        targets = state.pending_targets.pop(node, _NO_TARGETS)
        agree = len(observed_colors) == 2 and observed_colors[0] == observed_colors[1]
        w = int(state.working_time[node])
        next_wt = w + 1
        action = schedule.action_at(w)
        if w >= schedule.part_one_length:
            if agree:
                state.colors[node] = observed_colors[0]
            state.terminated[node] = next_wt >= schedule.total_length
        elif action == ACTION_TC_SAMPLE:
            state.intermediate[node] = observed_colors[0] if agree else NO_COLOR
        elif action == ACTION_TC_COMMIT:
            ic = int(state.intermediate[node])
            if ic != NO_COLOR:
                state.colors[node] = ic
            state.bit[node] = ic != NO_COLOR
            state.intermediate[node] = NO_COLOR
        elif action == ACTION_BP:
            # Bit and colour are read together at response time.
            if not state.bit[node] and len(targets) and state.bit[targets[0]]:
                state.colors[node] = state.colors[targets[0]]
                state.bit[node] = True
        elif action == ACTION_SYNC_SAMPLE and len(targets):
            own_rt = int(state.real_time[node])
            state.buffers[node].collect(w // schedule.phase_length, int(state.real_time[targets[0]]), own_rt)
        elif action == ACTION_SYNC_JUMP:
            phase = w // schedule.phase_length
            buffer = state.buffers[node]
            target = jump_target(buffer, phase, int(state.real_time[node]), schedule.sync_starts[phase])
            buffer.clear()
            if target is not None:
                next_wt = target
        state.working_time[node] = next_wt
        state.real_time[node] += 1

    def is_absorbed(self, state: AsyncNodeState) -> bool:
        return bool(state.terminated.all())


register_protocol(
    "async-plurality",
    description="The paper's phased asynchronous protocol with the Sync Gadget (Theorem 1.3)",
    sequential=AsyncPluralityProtocol,
    params=[
        ParamSpec("delta_factor", kind="float", default=1.0, doc="working-time spread bound multiplier"),
        ParamSpec("phases", kind="int", doc="number of Two-Choices/BP phases (default: schedule-derived)"),
        ParamSpec("phase_factor", kind="float", default=3.0, doc="phase-count multiplier on log2 log2 n"),
        ParamSpec("phase_offset", kind="int", default=2, doc="additive phase-count constant"),
        ParamSpec("bp_blocks", kind="int", default=2, doc="Bit-Propagation blocks per phase"),
        ParamSpec("min_sync_blocks", kind="int", default=2, doc="minimum Sync Gadget blocks per phase"),
        ParamSpec("sync_samples", kind="int", doc="samples per Sync block (default: schedule-derived)"),
        ParamSpec("endgame_factor", kind="float", default=14.0, doc="endgame length multiplier on ln n"),
        ParamSpec("sync_enabled", kind="bool", default=True, doc="enable the Sync Gadget"),
    ],
)
